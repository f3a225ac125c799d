//! The one snapshot encoding (`rtds::sim::snapshot::Snap`): every container
//! impl round-trips exactly — through text, as a snapshot file would — and
//! refuses the neighbouring shapes with the path of the offending value.

use proptest::prelude::*;
use rtds::net::SiteId;
use rtds::sim::snapshot::{Path, Snap, Word};
use rtds::sim::Json;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;
use std::sync::Arc;

/// encode → render → parse → decode, compared with `same`.
fn round_trip<T: Snap + Debug>(value: &T, same: impl Fn(&T, &T) -> bool) {
    let text = value.encode().render();
    let doc = Json::parse(&text).expect("an encoding is valid JSON");
    assert_eq!(doc.render(), text, "integers only: a byte fixpoint");
    let back = T::decode(&doc, &Path::root("value")).expect("an encoding decodes");
    assert!(same(&back, value), "{back:?} != {value:?}");
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

type Nested = BTreeMap<u32, Vec<(SiteId, Option<f64>, bool)>>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn floats_round_trip_by_bit_pattern(word in 0u64..u64::MAX) {
        // Every bit pattern: NaN payloads, -0.0, subnormals, infinities.
        for x in [f64::from_bits(word), f64::from_bits(!word), -0.0, f64::NAN, f64::INFINITY] {
            round_trip(&x, |a, b| a.to_bits() == b.to_bits());
            round_trip(&Word(x.to_bits()), |a, b| a == b);
        }
    }

    #[test]
    fn integers_round_trip_up_to_half_their_range(word in 0u64..u64::MAX) {
        round_trip(&(word / 2), |a, b| a == b);
        round_trip(&((word >> 33) as u32), |a, b| a == b);
        // Sizes beyond `u32::MAX` are ordinary on a 64-bit target.
        let size = (word / 2) as usize | (1 << 33);
        round_trip(&size, |a, b| a == b);
        // The upper half is refused: a restored counter must survive `+ 1`.
        let upper = Json::UInt(word | 1 << 63);
        prop_assert!(u64::decode(&upper, &Path::root("n")).is_err());
        prop_assert!(usize::decode(&upper, &Path::root("n")).is_err());
        prop_assert!(u32::decode(&Json::UInt(word | 1 << 31), &Path::root("n")).is_err());
        prop_assert_eq!(Word::decode(&upper, &Path::root("n")), Ok(Word(word | 1 << 63)));
    }

    #[test]
    fn containers_round_trip(
        xs in proptest::collection::vec(0u64..u64::MAX, 0..6),
        flag in proptest::bool::ANY,
        label in 0u32..1000,
    ) {
        let floats: Vec<f64> = xs.iter().map(|&w| f64::from_bits(w)).collect();
        let same_floats = |a: &[f64], b: &[f64]| bits(a) == bits(b);
        round_trip(&floats, |a, b| same_floats(a, b));
        round_trip(&VecDeque::from(floats.clone()), |a, b| a.iter().map(|x| x.to_bits()).eq(b.iter().map(|x| x.to_bits())));
        round_trip(&Arc::<[f64]>::from(floats.clone()), |a, b| same_floats(a, b));
        round_trip(&Vec::<Vec<u64>>::new(), |a, b| a == b);
        round_trip(&vec![Vec::new(), vec![1u64], Vec::new()], |a, b| a == b);
        round_trip(&flag, |a, b| a == b);
        round_trip(&format!("label \"{label}\"\n\u{1D11E}"), |a, b| a == b);
        round_trip(&None::<u64>, |a, b| a == b);
        round_trip(&Some(label), |a, b| a == b);
        round_trip(&(label, flag), |a, b| a == b);
        round_trip(&(label, flag, format!("{label}")), |a, b| a == b);
        round_trip(&(label, flag, Some(label), SiteId(7)), |a, b| a == b);
        round_trip(&[label, label + 1, 0], |a, b| a == b);
        let halves: Vec<u64> = xs.iter().map(|w| w / 2).collect();
        let map: BTreeMap<u64, Vec<u64>> = halves.iter().map(|&k| (k, halves.clone())).collect();
        round_trip(&map, |a, b| a == b);
        let nested: Nested = (0..label % 4)
            .map(|k| (k, halves.iter().map(|&w| (SiteId(w as usize % 9), (w % 2 == 0).then_some(1.5), flag)).collect()))
            .collect();
        round_trip(&nested, |a, b| a == b);
        round_trip(&BTreeMap::<u64, u64>::new(), |a, b| a == b);
    }
}

#[test]
fn errors_name_the_offending_path() {
    let root = Path::root("doc");
    let message = |e: rtds::sim::SnapshotError| e.0;
    let doc = Json::parse("[[1, 2], [3, \"x\"]]").unwrap();
    assert_eq!(
        message(Vec::<(u64, u64)>::decode(&doc, &root).unwrap_err()),
        "doc[1][1]: expected unsigned integer"
    );
    let short = Json::parse("[[1, 2], [3]]").unwrap();
    assert_eq!(
        message(Vec::<(u64, u64)>::decode(&short, &root).unwrap_err()),
        "doc[1]: expected an array of 2 entries"
    );
    assert_eq!(
        message(<[u64; 3]>::decode(&short, &root).unwrap_err()),
        "doc[0]: expected unsigned integer"
    );
    assert_eq!(
        message(<[Vec<u64>; 3]>::decode(&short, &root).unwrap_err()),
        "doc: expected 3 entries"
    );
    // A map is an array of pairs, not a JSON object.
    let object = Json::parse("{\"a\": 1}").unwrap();
    assert_eq!(
        message(BTreeMap::<String, u64>::decode(&object, &root).unwrap_err()),
        "doc: expected array"
    );
    // Site ids are checked against the topology the path is bound to.
    let sites = Json::parse("[0, 4, 5]").unwrap();
    assert!(Vec::<SiteId>::decode(&sites, &root).is_ok());
    assert_eq!(
        message(Vec::<SiteId>::decode(&sites, &root.within(5)).unwrap_err()),
        "doc[2]: site 5 outside the 5-site topology"
    );
    assert_eq!(
        message(Option::<bool>::decode(&Json::UInt(1), &root.key("flag")).unwrap_err()),
        "doc.flag: expected bool"
    );
    assert_eq!(Option::<bool>::decode(&Json::Null, &root), Ok(None));
}
