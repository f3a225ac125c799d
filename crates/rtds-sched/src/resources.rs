//! The multicore site resource model.
//!
//! The paper evaluates single-capacity sites; this module generalises a site
//! to a dslab-compute-style resource bundle — a number of identical cores, a
//! relative speed and a memory capacity — plus a per-task *demand* (cores,
//! memory, speedup law). The degenerate bundle `cores = 1, memory = ∞` with
//! single-core demands reproduces the paper's model exactly: on it the one
//! placement path of [`crate::scheduler`] makes the decisions of the original
//! single-plan rule, so all pre-multicore reports stay byte-identical.

/// Compute resources of one site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteResources {
    /// Number of identical cores (`>= 1`).
    pub cores: usize,
    /// Relative speed multiplier applied on top of the site's base speed
    /// (1.0 = the site's own speed; the §13 uniform-machines factor is
    /// composed with this, not replaced by it).
    pub speed: f64,
    /// Memory capacity in abstract units ([`f64::INFINITY`] = unlimited).
    pub memory: f64,
}

impl Default for SiteResources {
    fn default() -> Self {
        SiteResources {
            cores: 1,
            speed: 1.0,
            memory: f64::INFINITY,
        }
    }
}

impl SiteResources {
    /// A single-core site with the given relative speed and unlimited
    /// memory — the paper's model.
    pub fn single_core(speed: f64) -> Self {
        SiteResources {
            cores: 1,
            speed,
            memory: f64::INFINITY,
        }
    }

    /// A multicore site with unlimited memory.
    pub fn multicore(cores: usize, speed: f64) -> Self {
        SiteResources {
            cores: cores.max(1),
            speed,
            memory: f64::INFINITY,
        }
    }

    /// Returns `true` for the degenerate paper-model shape: one core,
    /// unit speed multiplier, unlimited memory. On this shape every
    /// scheduler query reduces to the original single-plan primitives.
    pub fn is_degenerate(&self) -> bool {
        self.cores == 1 && self.speed == 1.0 && self.memory.is_infinite()
    }

    /// Validates the bundle.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("site must have at least one core".into());
        }
        if !(self.speed.is_finite() && self.speed > 0.0) {
            return Err(format!("site speed must be positive, got {}", self.speed));
        }
        if self.memory.is_nan() || self.memory < 0.0 {
            return Err(format!("site memory must be >= 0, got {}", self.memory));
        }
        Ok(())
    }
}

/// How a task's execution time scales with the cores granted to it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SpeedupFn {
    /// No parallel speedup: the task runs at single-core speed however many
    /// cores it occupies.
    #[default]
    Flat,
    /// Perfect linear speedup: `k` cores run the task `k` times faster.
    Linear,
    /// Amdahl's law with the given parallelisable fraction `p` in `[0, 1]`:
    /// `k` cores yield a factor `1 / ((1 - p) + p / k)`.
    Amdahl {
        /// Fraction of the work that parallelises.
        parallel_fraction: f64,
    },
}

impl SpeedupFn {
    /// Speedup factor when the task runs on `cores` cores (`>= 1.0`).
    pub(crate) fn factor(&self, cores: usize) -> f64 {
        let k = cores.max(1) as f64;
        match *self {
            SpeedupFn::Flat => 1.0,
            SpeedupFn::Linear => k,
            SpeedupFn::Amdahl { parallel_fraction } => {
                let p = parallel_fraction.clamp(0.0, 1.0);
                1.0 / ((1.0 - p) + p / k)
            }
        }
    }
}

/// Resource demand of one task: how many cores it occupies simultaneously
/// (gang-scheduled), how much memory it holds while resident, and how its
/// duration scales with the cores it gets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskDemand {
    /// Cores occupied for the whole execution (clamped to the site's cores).
    pub cores: usize,
    /// Memory held for the duration of the reservation.
    pub memory: f64,
    /// Duration scaling law.
    pub speedup: SpeedupFn,
}

impl Default for TaskDemand {
    fn default() -> Self {
        TaskDemand {
            cores: 1,
            memory: 0.0,
            speedup: SpeedupFn::Flat,
        }
    }
}

impl TaskDemand {
    /// Cores actually granted on a site: the demand clamped to what exists.
    pub fn granted_cores(&self, resources: &SiteResources) -> usize {
        self.cores.clamp(1, resources.cores)
    }

    /// Execution time of a task of the given `cost` on `resources`, where
    /// `base_speed` is the site's effective speed (the §13 uniform-machines
    /// factor). The resource speed multiplier and the speedup law compose
    /// multiplicatively.
    pub fn duration(&self, cost: f64, base_speed: f64, resources: &SiteResources) -> f64 {
        let granted = self.granted_cores(resources);
        cost / (base_speed * resources.speed * self.speedup.factor(granted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_resources_are_the_paper_model() {
        let r = SiteResources::default();
        assert_eq!(r.cores, 1);
        assert_eq!(r.speed, 1.0);
        assert!(r.memory.is_infinite());
        assert!(r.is_degenerate());
        assert!(r.validate().is_ok());
        assert!(SiteResources::single_core(2.0).validate().is_ok());
        assert!(!SiteResources::single_core(2.0).is_degenerate());
        assert!(!SiteResources::multicore(4, 1.0).is_degenerate());
        assert_eq!(SiteResources::multicore(0, 1.0).cores, 1);
    }

    #[test]
    fn invalid_resources_are_rejected() {
        let bad = |f: fn(&mut SiteResources)| {
            let mut r = SiteResources::default();
            f(&mut r);
            r.validate().is_err()
        };
        assert!(bad(|r| r.cores = 0));
        assert!(bad(|r| r.speed = 0.0));
        assert!(bad(|r| r.speed = f64::NAN));
        assert!(bad(|r| r.memory = -1.0));
        assert!(bad(|r| r.memory = f64::NAN));
    }

    #[test]
    fn speedup_laws_match_their_definitions() {
        assert_eq!(SpeedupFn::Flat.factor(8), 1.0);
        assert_eq!(SpeedupFn::Linear.factor(1), 1.0);
        assert_eq!(SpeedupFn::Linear.factor(4), 4.0);
        // Amdahl: p = 0 is flat, p = 1 is linear, and factors are monotone
        // in the core count but bounded by 1 / (1 - p).
        let flat = SpeedupFn::Amdahl {
            parallel_fraction: 0.0,
        };
        assert_eq!(flat.factor(16), 1.0);
        let linear = SpeedupFn::Amdahl {
            parallel_fraction: 1.0,
        };
        assert_eq!(linear.factor(4), 4.0);
        let amdahl = SpeedupFn::Amdahl {
            parallel_fraction: 0.8,
        };
        assert!((amdahl.factor(2) - 1.0 / (0.2 + 0.4)).abs() < 1e-12);
        assert!(amdahl.factor(4) > amdahl.factor(2));
        assert!(amdahl.factor(1_000_000) < 5.0);
        assert_eq!(amdahl.factor(1), 1.0);
        // Out-of-range fractions are clamped, zero cores treated as one.
        assert_eq!(
            SpeedupFn::Amdahl {
                parallel_fraction: 7.0
            }
            .factor(2),
            2.0
        );
        assert_eq!(SpeedupFn::Linear.factor(0), 1.0);
    }

    #[test]
    fn demand_duration_composes_speed_and_speedup() {
        let site = SiteResources::multicore(4, 2.0);
        let demand = TaskDemand {
            cores: 2,
            memory: 1.0,
            speedup: SpeedupFn::Linear,
        };
        // cost 12 at base speed 1.5 × resource multiplier 2 × linear(2).
        assert!((demand.duration(12.0, 1.5, &site) - 12.0 / (1.5 * 2.0 * 2.0)).abs() < 1e-12);
        // Demands above the site's cores are clamped.
        let wide = TaskDemand {
            cores: 16,
            ..demand
        };
        assert_eq!(wide.granted_cores(&site), 4);
        // The default demand on a degenerate site is exactly cost / speed.
        let default_site = SiteResources::default();
        let d = TaskDemand::default();
        assert_eq!(d.duration(10.0, 2.0, &default_site), 5.0);
        assert_eq!(d.granted_cores(&default_site), 1);
    }
}
