//! Named counters and gauges with interned keys and dense storage.
//!
//! The shape mirrors `pels_sim::ActivitySet`: a global append-only
//! interning registry maps each distinct metric name to a small dense
//! [`MetricKey`], and a [`MetricsRegistry`] is a plain `Vec<u64>` indexed
//! by key — recording is an array add, no hashing, no allocation on the
//! steady state. A disabled registry reduces every record to one branch.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A dense handle to an interned metric name.
///
/// Identical names intern to identical keys process-wide, so hot callers
/// intern once up front and record through the integer handle.
///
/// ```
/// use pels_obs::MetricKey;
/// let a = MetricKey::intern("soc.sched.rebuilds");
/// let b = MetricKey::intern("soc.sched.rebuilds");
/// assert_eq!(a, b);
/// assert_eq!(a.name(), "soc.sched.rebuilds");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey(u32);

struct Registry {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

impl MetricKey {
    /// Interns `name`, returning its stable key. The first call for a
    /// given name allocates (and leaks) one copy of the string; every
    /// subsequent call is a hash lookup. Bounded by the number of
    /// *distinct* metric names a process ever creates.
    pub fn intern(name: &str) -> MetricKey {
        let mut reg = registry().lock().expect("metric registry poisoned");
        if let Some(&id) = reg.by_name.get(name) {
            return MetricKey(id);
        }
        let id = u32::try_from(reg.names.len()).expect("metric registry overflow");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        reg.names.push(leaked);
        reg.by_name.insert(leaked, id);
        MetricKey(id)
    }

    /// Looks up an already-interned name without interning it.
    pub fn lookup(name: &str) -> Option<MetricKey> {
        let reg = registry().lock().expect("metric registry poisoned");
        reg.by_name.get(name).map(|&id| MetricKey(id))
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        let reg = registry().lock().expect("metric registry poisoned");
        reg.names[self.0 as usize]
    }

    /// The dense index backing this key.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(i: usize) -> MetricKey {
        MetricKey(u32::try_from(i).expect("metric index out of range"))
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Dense per-key counter/gauge storage.
///
/// Counters add ([`MetricsRegistry::add`]); gauges overwrite
/// ([`MetricsRegistry::set`]). Both are no-ops on a disabled registry, so
/// instrumented code pays one branch when observability is off.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counts: Vec<u64>,
    enabled: bool,
}

impl MetricsRegistry {
    /// Creates an enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counts: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled registry: every record is a no-op.
    pub fn disabled() -> Self {
        MetricsRegistry {
            counts: Vec::new(),
            enabled: false,
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Adds `n` to the counter behind `key` (no-op when disabled or
    /// `n == 0`).
    #[inline]
    pub fn add(&mut self, key: MetricKey, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        let idx = key.index();
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// Overwrites the gauge behind `key` with `v` (no-op when disabled).
    #[inline]
    pub fn set(&mut self, key: MetricKey, v: u64) {
        if !self.enabled {
            return;
        }
        let idx = key.index();
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] = v;
    }

    /// Adds `n` under a metric name, interning it if needed — the cold
    /// path for dynamically composed names (`fleet.worker3.jobs`).
    pub fn add_named(&mut self, name: &str, n: u64) {
        if !self.enabled {
            return;
        }
        self.add(MetricKey::intern(name), n);
    }

    /// Overwrites the gauge under a metric name, interning it if needed.
    pub fn set_named(&mut self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        self.set(MetricKey::intern(name), v);
    }

    /// Current value behind `key` (0 when never recorded).
    pub fn get(&self, key: MetricKey) -> u64 {
        self.counts.get(key.index()).copied().unwrap_or(0)
    }

    /// Current value under `name` (0 when unknown).
    pub fn get_named(&self, name: &str) -> u64 {
        MetricKey::lookup(name).map(|k| self.get(k)).unwrap_or(0)
    }

    /// Adds every entry of a snapshot into this registry (counters add).
    pub fn absorb(&mut self, snapshot: &MetricsSnapshot) {
        for (name, v) in snapshot.iter() {
            self.add_named(name, v);
        }
    }

    /// A point-in-time view: every non-zero metric, sorted by name for
    /// deterministic reporting and diffing.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(&'static str, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .map(|(i, &v)| (MetricKey::from_index(i).name(), v))
            .collect();
        entries.sort_by_key(|&(name, _)| name);
        MetricsSnapshot { entries }
    }
}

/// A sorted, immutable `(name, value)` view of a [`MetricsRegistry`],
/// ready for reports and JSON export.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    entries: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|&(n, _)| n.cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The snapshot as a flat JSON object: one `"name": value` pair per
    /// metric, sorted by name.
    pub fn to_value(&self) -> crate::json::Value {
        crate::json::Value::object(self.iter().map(|(name, v)| (name, v.into())))
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "metrics:")?;
        for (name, v) in self.iter() {
            writeln!(f, "  {name:<40} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let a = MetricKey::intern("obs-test.metric.a");
        let b = MetricKey::intern("obs-test.metric.a");
        assert_eq!(a, b);
        assert_eq!(a.name(), "obs-test.metric.a");
        assert_eq!(MetricKey::lookup("obs-test.metric.a"), Some(a));
        assert_eq!(MetricKey::lookup("obs-test.metric.never"), None);
    }

    #[test]
    fn counters_add_and_gauges_overwrite() {
        let c = MetricKey::intern("obs-test.counter");
        let g = MetricKey::intern("obs-test.gauge");
        let mut reg = MetricsRegistry::new();
        reg.add(c, 2);
        reg.add(c, 3);
        reg.set(g, 7);
        reg.set(g, 5);
        assert_eq!(reg.get(c), 5);
        assert_eq!(reg.get(g), 5);
        assert_eq!(reg.get_named("obs-test.counter"), 5);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let c = MetricKey::intern("obs-test.disabled");
        let mut reg = MetricsRegistry::disabled();
        reg.add(c, 9);
        reg.set(c, 9);
        reg.add_named("obs-test.disabled", 9);
        assert_eq!(reg.get(c), 0);
        assert!(reg.snapshot().is_empty());
        reg.set_enabled(true);
        reg.add(c, 1);
        assert_eq!(reg.get(c), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let mut reg = MetricsRegistry::new();
        reg.add_named("obs-test.z", 1);
        reg.add_named("obs-test.a", 2);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap
            .iter()
            .map(|(n, _)| n)
            .filter(|n| n.starts_with("obs-test."))
            .collect();
        assert_eq!(names, vec!["obs-test.a", "obs-test.z"]);
        assert_eq!(snap.get("obs-test.a"), Some(2));
        assert_eq!(snap.get("obs-test.missing"), None);
    }

    #[test]
    fn absorb_adds_by_name() {
        let mut a = MetricsRegistry::new();
        a.add_named("obs-test.absorb", 1);
        let mut b = MetricsRegistry::new();
        b.add_named("obs-test.absorb", 2);
        a.absorb(&b.snapshot());
        assert_eq!(a.get_named("obs-test.absorb"), 3);
    }

    #[test]
    fn json_is_flat_and_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.add_named("obs-test-json.b", 2);
        reg.add_named("obs-test-json.a", 1);
        let v = reg.snapshot().to_value();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        let a = keys.iter().position(|&k| k == "obs-test-json.a").unwrap();
        let b = keys.iter().position(|&k| k == "obs-test-json.b").unwrap();
        assert!(a < b, "entries sorted by name");
        let doc = crate::json::to_string(&v);
        assert!(doc.contains("\n  \"obs-test-json.a\": 1,\n"), "one pair per line:\n{doc}");
        assert_eq!(crate::json::parse(&doc), Ok(v));
    }
}
