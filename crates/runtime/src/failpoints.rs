//! Deterministic fault injection for crash-consistency tests.
//!
//! A *failpoint* is a named trigger compiled into an I/O sequence (the
//! catalog's create/write/sync/rename steps, the serve layer's
//! connection reads and writes). In normal builds the `failpoints`
//! cargo feature is off and [`check`] is an inlined no-op; with the
//! feature on, a test (or the `PRIVTREE_FAILPOINTS` environment
//! variable) can arm a point to fire on its *n*-th hit with one of
//! three actions:
//!
//! * [`FailAction::Error`] — the instrumented call returns a typed
//!   error and its normal error-path cleanup runs, modelling a syscall
//!   failure (disk full, permission lost).
//! * [`FailAction::Crash`] — the instrumented call returns an error
//!   **and skips its cleanup**, modelling the process dying at that
//!   instant (`kill -9`, power loss): whatever was on disk at the
//!   failpoint stays on disk.
//! * [`FailAction::Panic`] — the call site panics, modelling a bug in
//!   the middle of a critical section (used to prove lock-poison
//!   recovery and per-connection panic isolation in the serve layer).
//!
//! Besides per-point triggers there is a **global step trigger**
//! (`arm_global`, like `hits` compiled only with the feature): every
//! [`check`] call increments one process-wide counter, and the trigger
//! fires on the *n*-th hit regardless of which point it lands on. A
//! crash-at-every-step sweep is then just: run the operation once
//! cleanly and read `hits`, then re-run it once per step with
//! `arm_global(k, Crash)` and assert the interrupted state recovers.
//!
//! Environment syntax (parsed once, on first registry use):
//!
//! ```text
//! PRIVTREE_FAILPOINTS="catalog.data.rename=crash@1,serve.read=err"
//! ```
//!
//! `@n` is the 1-based hit count and defaults to 1. Unknown actions
//! are ignored (a misspelled variable must never turn into silent
//! production behaviour — the registry only arms what it understands).
//!
//! The registry is process-global and guarded by a mutex; tests that
//! arm triggers must serialize themselves (integration-test binaries
//! are separate processes, which is usually isolation enough).

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Return a typed error; the call site's cleanup runs.
    Error,
    /// Return an error flagged as a crash; the call site must skip its
    /// cleanup, leaving disk state exactly as it was at the failpoint.
    Crash,
    /// Panic at the call site.
    Panic,
}

/// A fired failpoint, returned by [`check`] for the `Error` and
/// `Crash` actions (`Panic` never returns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The point that fired.
    pub point: String,
    /// The armed action (`Error` or `Crash`).
    pub action: FailAction,
}

impl Failure {
    /// Whether the call site must skip its error-path cleanup to model
    /// a process death.
    pub fn is_crash(&self) -> bool {
        self.action == FailAction::Crash
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected {:?} at failpoint {}", self.action, self.point)
    }
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{FailAction, Failure};
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    #[derive(Default)]
    struct Registry {
        /// Per-point triggers: point name -> (1-based nth hit, action).
        points: HashMap<String, (u64, FailAction)>,
        /// Hit counters per point (count every traversal, armed or not).
        point_hits: HashMap<String, u64>,
        /// Global step trigger: fires on the nth [`check`] overall.
        global: Option<(u64, FailAction)>,
        /// Total checks since the last [`reset`].
        hits: u64,
        /// Names of every hit since the last reset, when tracing.
        trace: Option<Vec<String>>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut reg = Registry::default();
            if let Ok(spec) = std::env::var("PRIVTREE_FAILPOINTS") {
                arm_from_spec(&mut reg, &spec);
            }
            Mutex::new(reg)
        })
    }

    fn parse_action(s: &str) -> Option<FailAction> {
        match s {
            "err" | "error" => Some(FailAction::Error),
            "crash" => Some(FailAction::Crash),
            "panic" => Some(FailAction::Panic),
            _ => None,
        }
    }

    fn arm_from_spec(reg: &mut Registry, spec: &str) {
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let Some((name, rest)) = part.split_once('=') else {
                continue;
            };
            let (action, nth) = match rest.split_once('@') {
                Some((a, n)) => (parse_action(a), n.parse::<u64>().ok()),
                None => (parse_action(rest), Some(1)),
            };
            if let (Some(action), Some(nth)) = (action, nth) {
                if nth >= 1 {
                    reg.points.insert(name.to_string(), (nth, action));
                }
            }
        }
    }

    /// Traverse the failpoint `name`: count the hit and fire if armed.
    pub fn check(name: &str) -> Result<(), Failure> {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.hits += 1;
        let hits = reg.hits;
        if let Some(trace) = reg.trace.as_mut() {
            trace.push(name.to_string());
        }
        let point_hits = reg.point_hits.entry(name.to_string()).or_insert(0);
        *point_hits += 1;
        let point_hits = *point_hits;
        let fired = match reg.global {
            Some((nth, action)) if nth == hits => {
                reg.global = None; // one-shot
                Some(action)
            }
            _ => match reg.points.get(name) {
                Some(&(nth, action)) if nth == point_hits => {
                    reg.points.remove(name); // one-shot
                    Some(action)
                }
                _ => None,
            },
        };
        drop(reg); // never panic while holding the registry lock
        match fired {
            None => Ok(()),
            Some(FailAction::Panic) => panic!("injected panic at failpoint {name}"),
            Some(action) => Err(Failure {
                point: name.to_string(),
                action,
            }),
        }
    }

    /// Arm `name` to fire with `action` on its `nth` (1-based) hit,
    /// counted from the last [`reset`]. One-shot: the trigger disarms
    /// after firing.
    pub fn arm(name: &str, action: FailAction, nth: u64) {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.points.insert(name.to_string(), (nth.max(1), action));
    }

    /// Arm the global step trigger: the `nth` (1-based) [`check`] call
    /// overall fires with `action`, whatever point it lands on.
    /// One-shot.
    pub fn arm_global(nth: u64, action: FailAction) {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.global = Some((nth.max(1), action));
    }

    /// Disarm every trigger and zero every counter (the environment
    /// spec is *not* re-applied).
    pub fn reset() {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        *reg = Registry::default();
    }

    /// Total [`check`] traversals since the last [`reset`].
    pub fn hits() -> u64 {
        registry().lock().unwrap_or_else(|e| e.into_inner()).hits
    }

    /// Start recording the name of every hit (cleared by [`reset`]).
    pub fn set_trace(on: bool) {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.trace = on.then(Vec::new);
    }

    /// The hits recorded since tracing was enabled.
    pub fn take_trace() -> Vec<String> {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.trace.take().unwrap_or_default()
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{arm, arm_global, check, hits, reset, set_trace, take_trace};

/// Traverse the failpoint `name`. With the `failpoints` feature off
/// this is a no-op the optimizer removes entirely.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn check(_name: &str) -> Result<(), Failure> {
    Ok(())
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global: serialize these tests.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn per_point_trigger_fires_on_nth_hit_once() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        arm("unit.a", FailAction::Error, 2);
        assert!(check("unit.a").is_ok(), "first hit passes");
        let failure = check("unit.a").unwrap_err();
        assert_eq!(failure.point, "unit.a");
        assert!(!failure.is_crash());
        assert!(check("unit.a").is_ok(), "one-shot: third hit passes");
        reset();
    }

    #[test]
    fn global_trigger_counts_across_points() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_trace(true);
        arm_global(3, FailAction::Crash);
        assert!(check("unit.a").is_ok());
        assert!(check("unit.b").is_ok());
        let failure = check("unit.c").unwrap_err();
        assert_eq!(failure.point, "unit.c");
        assert!(failure.is_crash());
        assert_eq!(hits(), 3);
        assert_eq!(take_trace(), ["unit.a", "unit.b", "unit.c"]);
        reset();
    }

    #[test]
    fn panic_action_panics_at_the_call_site() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        arm("unit.boom", FailAction::Panic, 1);
        let result = std::panic::catch_unwind(|| check("unit.boom"));
        assert!(result.is_err(), "panic action must panic");
        // the registry survives the panic and keeps counting
        assert!(check("unit.boom").is_ok());
        reset();
    }
}
