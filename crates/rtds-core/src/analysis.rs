//! Extraction of the paper's exhibits from Mapper results.
//!
//! The experiment harness reprints Fig. 3 (`S`), Fig. 4 (`S*`) and Table 1
//! from a [`MapperResult`] plus an [`AdjustOutcome`]; the golden integration
//! tests compare these rows against the constants published in the paper (and
//! recorded in `rtds_graph::paper_instance`).

use crate::adjust::AdjustOutcome;
use crate::mapper::MapperResult;
use rtds_graph::TaskGraph;

/// One row of a Gantt rendering: a task on a logical processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GanttRow {
    /// Task index (0-based; printed 1-based by the binaries).
    pub task: usize,
    /// Logical processor index.
    pub processor: usize,
    /// Start time.
    pub start: f64,
    /// Finish time.
    pub finish: f64,
}

/// One row of Table 1: raw and adjusted windows of a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Task index (0-based).
    pub task: usize,
    /// `r_i`: start time in `S`.
    pub r_raw: f64,
    /// `d_i`: finish time in `S`.
    pub d_raw: f64,
    /// Adjusted release `r(t_i)`.
    pub r_adjusted: f64,
    /// Adjusted deadline `d(t_i)`.
    pub d_adjusted: f64,
}

/// Gantt rows of the schedule `S` (or `S*` when `star` is true), sorted by
/// processor then start time.
pub fn gantt_rows(result: &MapperResult, star: bool) -> Vec<GanttRow> {
    let n = result.assignment.len();
    let mut rows: Vec<GanttRow> = (0..n)
        .map(|t| GanttRow {
            task: t,
            processor: result.assignment[t],
            start: if star {
                result.star_start[t]
            } else {
                result.start[t]
            },
            finish: if star {
                result.star_finish[t]
            } else {
                result.finish[t]
            },
        })
        .collect();
    rows.sort_by(|a, b| {
        a.processor
            .cmp(&b.processor)
            .then(a.start.partial_cmp(&b.start).unwrap())
    });
    rows
}

/// Table 1 rows; returns `None` when the adjustment rejected the job.
pub fn table1_rows(
    graph: &TaskGraph,
    result: &MapperResult,
    adjusted: &AdjustOutcome,
) -> Option<Vec<Table1Row>> {
    let (release, deadline) = adjusted.windows()?;
    Some(
        graph
            .task_ids()
            .map(|t| Table1Row {
                task: t.0,
                r_raw: result.start[t.0],
                d_raw: result.finish[t.0],
                r_adjusted: release[t.0],
                d_adjusted: deadline[t.0],
            })
            .collect(),
    )
}

/// Renders Gantt rows as fixed-width text (one line per task).
pub fn render_gantt(rows: &[GanttRow]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "p{}  t{}  [{:>7.2}, {:>7.2}]\n",
            r.processor + 1,
            r.task + 1,
            r.start,
            r.finish
        ));
    }
    out
}

/// Renders Table 1 rows as fixed-width text matching the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from("ti    ri     di     r(ti)   d(ti)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<4} {:>6.1} {:>6.1} {:>7.1} {:>7.1}\n",
            r.task + 1,
            r.r_raw,
            r.d_raw,
            r.r_adjusted,
            r.d_adjusted
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjust::adjust_mapping;
    use crate::config::LaxityDispatch;
    use crate::mapper::{map_dag, MapperInput, ProcessorSpec};
    use rtds_graph::paper_instance::{
        paper_task_graph, EXPECTED_SCHEDULE_S, EXPECTED_SCHEDULE_S_STAR, EXPECTED_TABLE1,
        PAPER_ACS_DIAMETER, PAPER_DEADLINE, PAPER_RELEASE, PAPER_SURPLUS_P1, PAPER_SURPLUS_P2,
    };

    fn paper_setup() -> (rtds_graph::TaskGraph, MapperResult, AdjustOutcome) {
        let graph = paper_task_graph();
        let processors = vec![
            ProcessorSpec::with_surplus(PAPER_SURPLUS_P1),
            ProcessorSpec::with_surplus(PAPER_SURPLUS_P2),
        ];
        let input = MapperInput::new(&graph, PAPER_RELEASE, &processors, PAPER_ACS_DIAMETER);
        let result = map_dag(&input).unwrap();
        let adjusted = adjust_mapping(
            &graph,
            &result,
            PAPER_RELEASE,
            PAPER_DEADLINE,
            &processors,
            LaxityDispatch::Uniform,
        );
        (graph, result, adjusted)
    }

    #[test]
    fn gantt_rows_match_fig3_and_fig4() {
        let (_, result, _) = paper_setup();
        let s = gantt_rows(&result, false);
        assert_eq!(s.len(), 5);
        for row in &s {
            let expected = EXPECTED_SCHEDULE_S
                .iter()
                .find(|(t, _, _, _)| *t == row.task)
                .unwrap();
            assert_eq!(row.processor, expected.1);
            assert!((row.start - expected.2).abs() < 1e-9);
            assert!((row.finish - expected.3).abs() < 1e-9);
        }
        let s_star = gantt_rows(&result, true);
        for row in &s_star {
            let expected = EXPECTED_SCHEDULE_S_STAR
                .iter()
                .find(|(t, _, _, _)| *t == row.task)
                .unwrap();
            assert!((row.start - expected.2).abs() < 1e-9);
            assert!((row.finish - expected.3).abs() < 1e-9);
        }
        // Rows are grouped by processor and ordered by start.
        for w in s.windows(2) {
            assert!(w[0].processor < w[1].processor || w[0].start <= w[1].start);
        }
        let text = render_gantt(&s);
        assert!(text.contains("p1  t1"));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn table1_rows_match_the_paper() {
        let (graph, result, adjusted) = paper_setup();
        let rows = table1_rows(&graph, &result, &adjusted).unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            let expected = EXPECTED_TABLE1
                .iter()
                .find(|(t, _, _, _, _)| *t == row.task)
                .unwrap();
            assert!((row.r_raw - expected.1).abs() < 1e-9);
            assert!((row.d_raw - expected.2).abs() < 1e-9);
            assert!((row.r_adjusted - expected.3).abs() < 1e-9);
            assert!((row.d_adjusted - expected.4).abs() < 1e-9);
        }
        let text = render_table1(&rows);
        assert!(text.contains("r(ti)"));
        assert_eq!(text.lines().count(), 6);
    }

    #[test]
    fn table1_rows_are_none_when_rejected() {
        let (graph, result, _) = paper_setup();
        let processors = vec![
            ProcessorSpec::with_surplus(PAPER_SURPLUS_P1),
            ProcessorSpec::with_surplus(PAPER_SURPLUS_P2),
        ];
        let rejected = adjust_mapping(
            &graph,
            &result,
            0.0,
            10.0,
            &processors,
            LaxityDispatch::Uniform,
        );
        assert!(table1_rows(&graph, &result, &rejected).is_none());
    }
}
