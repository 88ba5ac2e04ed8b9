//! # hyperbench-fault
//!
//! Named failpoints for deterministic fault injection, in the style of
//! `fail-rs` but zero-dependency and scoped to exactly what this
//! workspace needs. A failpoint is a named site in production code:
//!
//! ```ignore
//! hyperbench_fault::fail_point!("wal.fsync", |msg| Err(StoreError::Io(
//!     std::io::Error::other(format!("failpoint: {msg}")))));
//! ```
//!
//! With the `failpoints` cargo feature **off** (the default, and the
//! only configuration release binaries ship), the macro expands to
//! nothing: no registry, no branch, no string in the binary — CI
//! asserts the release build carries no trace of the subsystem beyond
//! the [`ENABLED`] stub. With the feature **on** (chaos tests, the CI
//! `chaos` leg), each site consults a process-global registry armed
//! either from the `HYPERBENCH_FAILPOINTS` environment variable at
//! startup ([`init_from_env`]) or at runtime through the server's
//! test-only `POST /debug/failpoints` route ([`configure`]).
//!
//! ## Spec grammar
//!
//! ```text
//! HYPERBENCH_FAILPOINTS = point "=" spec (";" point "=" spec)*
//! spec  := stage ("->" stage)*
//! stage := [count "*"] action
//! action:= "off" | "return" | "return(msg)" | "panic" | "panic(msg)"
//!        | "sleep(millis)"
//! ```
//!
//! Each hit consumes the first stage whose `count` is not yet
//! exhausted; a stage without a count applies forever. So
//! `2*off->1*return(disk full)` passes the first two hits through,
//! fails exactly the third, and is inert afterwards — the
//! "error on the Nth hit" shape chaos schedules are built from.
//! Actions: `return` hands its message to the site's closure (which
//! maps it into the site's error type), `sleep` injects latency then
//! lets the site proceed, `panic` panics with the message.

#![forbid(unsafe_code)]

#[cfg(feature = "failpoints")]
use std::collections::HashMap;
#[cfg(feature = "failpoints")]
use std::sync::{Mutex, OnceLock};

/// Whether fault injection is compiled in. Lets callers branch at
/// runtime (`if hyperbench_fault::ENABLED { … }`) without a `cfg` on
/// another crate's feature; the `false` arm folds away in release.
#[cfg(feature = "failpoints")]
pub const ENABLED: bool = true;
/// Whether fault injection is compiled in (here: it is not).
#[cfg(not(feature = "failpoints"))]
pub const ENABLED: bool = false;

/// Evaluates a failpoint site. Expands to nothing without the
/// `failpoints` feature.
///
/// * `fail_point!("name")` — unit form: can inject latency or panic;
///   a `return` action is counted but otherwise ignored.
/// * `fail_point!("name", |msg: String| expr)` — early-`return`s
///   `expr` from the enclosing function when a `return` action fires,
///   with the action's message (possibly empty) as `msg`.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{
        let _ = $crate::eval($name);
    }};
    ($name:expr, $f:expr) => {{
        if let Some(__fault_msg) = $crate::eval($name) {
            #[allow(clippy::redundant_closure_call)]
            return ($f)(__fault_msg);
        }
    }};
}

/// Evaluates a failpoint site (here: compiled to nothing).
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{}};
    ($name:expr, $f:expr) => {{}};
}

/// One stage of a failpoint spec: an action limited to `count` hits
/// (`None` = unbounded).
#[cfg(feature = "failpoints")]
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stage {
    count: Option<u64>,
    action: Action,
}

#[cfg(feature = "failpoints")]
#[derive(Debug, Clone, PartialEq, Eq)]
enum Action {
    Off,
    Return(String),
    Panic(String),
    Sleep(u64),
}

#[cfg(feature = "failpoints")]
#[derive(Debug)]
struct FailPoint {
    spec: String,
    stages: Vec<Stage>,
    /// Hits consumed per stage (parallel to `stages`).
    used: Vec<u64>,
}

#[cfg(feature = "failpoints")]
fn registry() -> &'static Mutex<HashMap<String, FailPoint>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, FailPoint>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The total number of non-`off` actions fired, via the global
/// telemetry registry (`hyperbench_fault_injected_total`).
#[cfg(feature = "failpoints")]
fn fires_counter() -> &'static std::sync::Arc<hyperbench_telemetry::Counter> {
    static FIRES: OnceLock<std::sync::Arc<hyperbench_telemetry::Counter>> = OnceLock::new();
    FIRES.get_or_init(|| {
        hyperbench_telemetry::global().counter(
            "hyperbench_fault_injected_total",
            "failpoint actions (return/panic/sleep) fired",
        )
    })
}

#[cfg(feature = "failpoints")]
fn parse_action(text: &str) -> Result<Action, String> {
    let text = text.trim();
    let (head, arg) = match text.find('(') {
        Some(open) => {
            let close = text
                .rfind(')')
                .ok_or_else(|| format!("unclosed '(' in action {text:?}"))?;
            if close != text.len() - 1 {
                return Err(format!("trailing garbage after ')' in action {text:?}"));
            }
            (&text[..open], Some(&text[open + 1..close]))
        }
        None => (text, None),
    };
    match (head, arg) {
        ("off", None) => Ok(Action::Off),
        ("return", arg) => Ok(Action::Return(arg.unwrap_or("").to_string())),
        ("panic", arg) => Ok(Action::Panic(
            arg.filter(|a| !a.is_empty())
                .unwrap_or("failpoint panic")
                .to_string(),
        )),
        ("sleep", Some(ms)) => ms
            .trim()
            .parse()
            .map(Action::Sleep)
            .map_err(|_| format!("sleep wants millis, got {ms:?}")),
        ("sleep", None) => Err("sleep needs a millisecond argument".to_string()),
        _ => Err(format!(
            "unknown action {head:?} (expected off|return|panic|sleep)"
        )),
    }
}

#[cfg(feature = "failpoints")]
fn parse_spec(spec: &str) -> Result<Vec<Stage>, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Err("empty spec".to_string());
    }
    spec.split("->")
        .map(|stage| {
            let stage = stage.trim();
            match stage.split_once('*') {
                Some((count, action)) => {
                    let count: u64 = count
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad hit count in stage {stage:?}"))?;
                    Ok(Stage {
                        count: Some(count),
                        action: parse_action(action)?,
                    })
                }
                None => Ok(Stage {
                    count: None,
                    action: parse_action(stage)?,
                }),
            }
        })
        .collect()
}

/// Arms (or re-arms) one failpoint with a spec like
/// `2*off->1*return(disk full)`. Hit counts restart from zero.
#[cfg(feature = "failpoints")]
pub fn configure(name: &str, spec: &str) -> Result<(), String> {
    let stages = parse_spec(spec)?;
    let used = vec![0; stages.len()];
    registry().lock().expect("failpoint registry").insert(
        name.to_string(),
        FailPoint {
            spec: spec.trim().to_string(),
            stages,
            used,
        },
    );
    hyperbench_telemetry::log_info!("fault", "failpoint armed"; point = name, spec = spec);
    Ok(())
}

/// Arms (or re-arms) one failpoint (here: always an error — fault
/// injection is compiled out).
#[cfg(not(feature = "failpoints"))]
pub fn configure(_name: &str, _spec: &str) -> Result<(), String> {
    Err("fault injection is compiled out (failpoints feature disabled)".to_string())
}

/// Parses a multi-point configuration string
/// (`point=spec;point=spec;…`; empty segments ignored) and arms every
/// point in it. Used for both the environment variable and the debug
/// route body.
#[cfg(feature = "failpoints")]
pub fn configure_all(config: &str) -> Result<usize, String> {
    let mut armed = 0;
    for part in config.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, spec) = part
            .split_once('=')
            .ok_or_else(|| format!("expected point=spec, got {part:?}"))?;
        configure(name.trim(), spec)?;
        armed += 1;
    }
    Ok(armed)
}

/// Parses and arms a multi-point configuration (here: always an error —
/// fault injection is compiled out).
#[cfg(not(feature = "failpoints"))]
pub fn configure_all(_config: &str) -> Result<usize, String> {
    Err("fault injection is compiled out (failpoints feature disabled)".to_string())
}

/// Arms every point named in the `HYPERBENCH_FAILPOINTS` environment
/// variable. Call once at process start (the server does, at bind). A
/// malformed value aborts loudly — a chaos schedule that silently
/// half-arms would fake green tests.
#[cfg(feature = "failpoints")]
pub fn init_from_env() {
    if let Ok(config) = std::env::var("HYPERBENCH_FAILPOINTS") {
        if let Err(e) = configure_all(&config) {
            panic!("HYPERBENCH_FAILPOINTS: {e}");
        }
    }
}

/// Arms points from the environment (here: compiled to nothing).
#[cfg(not(feature = "failpoints"))]
pub fn init_from_env() {}

/// Disarms one failpoint. Unknown names are fine (idempotent).
#[cfg(feature = "failpoints")]
pub fn remove(name: &str) {
    registry().lock().expect("failpoint registry").remove(name);
}

/// Disarms one failpoint (here: compiled to nothing).
#[cfg(not(feature = "failpoints"))]
pub fn remove(_name: &str) {}

/// Disarms every failpoint.
#[cfg(feature = "failpoints")]
pub fn clear() {
    registry().lock().expect("failpoint registry").clear();
}

/// Disarms every failpoint (here: compiled to nothing).
#[cfg(not(feature = "failpoints"))]
pub fn clear() {}

/// The armed failpoints as `(name, spec)` pairs, sorted by name.
#[cfg(feature = "failpoints")]
pub fn list() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = registry()
        .lock()
        .expect("failpoint registry")
        .iter()
        .map(|(name, fp)| (name.clone(), fp.spec.clone()))
        .collect();
    out.sort();
    out
}

/// The armed failpoints (here: always empty).
#[cfg(not(feature = "failpoints"))]
pub fn list() -> Vec<(String, String)> {
    Vec::new()
}

/// Evaluates one hit of the named failpoint: sleeps or panics in
/// place, and returns `Some(message)` when a `return` action fires
/// (the macro maps it into the site's error type). `None` means the
/// site proceeds normally. Prefer the [`fail_point!`] macro.
#[cfg(feature = "failpoints")]
pub fn eval(name: &str) -> Option<String> {
    // Decide under the lock, act (sleep/panic) outside it: a sleeping
    // failpoint must not serialize every other site in the process.
    let action = {
        let mut registry = registry().lock().expect("failpoint registry");
        let fp = registry.get_mut(name)?;
        let mut fired = None;
        for (stage, used) in fp.stages.iter().zip(fp.used.iter_mut()) {
            if let Some(count) = stage.count {
                if *used >= count {
                    continue;
                }
            }
            *used += 1;
            fired = Some(stage.action.clone());
            break;
        }
        fired?
    };
    if !matches!(action, Action::Off) {
        fires_counter().inc();
        hyperbench_telemetry::log_warn!("fault", "failpoint fired";
            point = name, action = format!("{action:?}"));
    }
    match action {
        Action::Off => None,
        Action::Return(msg) => Some(msg),
        Action::Sleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        Action::Panic(msg) => panic!("failpoint {name}: {msg}"),
    }
}

/// Evaluates one hit (here: never fires).
#[cfg(not(feature = "failpoints"))]
pub fn eval(_name: &str) -> Option<String> {
    None
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    /// Registry state is process-global; tests share it, so every test
    /// uses its own point names and clears what it armed.
    fn unique(name: &str) -> String {
        format!("test.{name}.{:?}", std::thread::current().id())
    }

    #[test]
    fn unarmed_points_never_fire() {
        assert_eq!(eval("test.nothing.armed.here"), None);
    }

    #[test]
    fn return_fires_with_its_message() {
        let p = unique("ret");
        configure(&p, "return(disk full)").unwrap();
        assert_eq!(eval(&p), Some("disk full".to_string()));
        assert_eq!(eval(&p), Some("disk full".to_string()), "unbounded stage");
        remove(&p);
        assert_eq!(eval(&p), None, "disarmed");
    }

    #[test]
    fn nth_hit_schedules_consume_in_order() {
        let p = unique("nth");
        configure(&p, "2*off->1*return(boom)").unwrap();
        assert_eq!(eval(&p), None);
        assert_eq!(eval(&p), None);
        assert_eq!(eval(&p), Some("boom".to_string()), "exactly the 3rd hit");
        assert_eq!(eval(&p), None, "chain exhausted → inert");
        remove(&p);
    }

    #[test]
    fn rearming_resets_hit_counts() {
        let p = unique("rearm");
        configure(&p, "1*return").unwrap();
        assert_eq!(eval(&p), Some(String::new()));
        assert_eq!(eval(&p), None);
        configure(&p, "1*return").unwrap();
        assert_eq!(eval(&p), Some(String::new()), "counts restarted");
        remove(&p);
    }

    #[test]
    fn sleep_injects_latency_then_proceeds() {
        let p = unique("sleep");
        configure(&p, "1*sleep(30)").unwrap();
        let t = std::time::Instant::now();
        assert_eq!(eval(&p), None, "sleep lets the site proceed");
        assert!(t.elapsed() >= std::time::Duration::from_millis(25));
        remove(&p);
    }

    #[test]
    fn panic_action_panics() {
        let p = unique("panic");
        configure(&p, "panic(kaboom)").unwrap();
        let err = std::panic::catch_unwind(|| eval(&p)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("kaboom"), "got {msg:?}");
        remove(&p);
    }

    #[test]
    fn configure_all_arms_every_segment() {
        let a = unique("all-a");
        let b = unique("all-b");
        let armed = configure_all(&format!("{a}=return; {b}=2*off->panic;")).unwrap();
        assert_eq!(armed, 2);
        let listed = list();
        assert!(listed.iter().any(|(n, s)| *n == a && s == "return"));
        assert!(listed.iter().any(|(n, s)| *n == b && s == "2*off->panic"));
        remove(&a);
        remove(&b);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "explode",
            "x*return",
            "sleep",
            "sleep(abc)",
            "return(unclosed",
            "return()trailing",
        ] {
            assert!(parse_spec(bad).is_err(), "accepted {bad:?}");
        }
        assert!(configure_all("no-equals-sign").is_err());
    }

    #[test]
    fn macro_return_form_early_returns() {
        let p = unique("macro");
        configure(&p, "1*return(io)").unwrap();
        fn site(point: &str) -> Result<u32, String> {
            crate::fail_point!(point, |msg: String| Err(format!("injected: {msg}")));
            Ok(7)
        }
        assert_eq!(site(&p), Err("injected: io".to_string()));
        assert_eq!(site(&p), Ok(7), "stage exhausted");
        remove(&p);
    }
}
