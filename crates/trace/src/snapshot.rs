//! Unified counter snapshots: every stats struct in the workspace
//! (engine, NIC firmware, fabric, live transport) renders itself as
//! named `(str, u64)` pairs so reports and dashboards consume one shape
//! instead of four.

/// A named set of monotone counters captured at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    scope: String,
    pairs: Vec<(&'static str, u64)>,
}

impl Snapshot {
    /// Creates an empty snapshot for one scope ("engine", "nic",
    /// "fabric", "xport", …).
    pub fn new(scope: impl Into<String>) -> Self {
        Snapshot { scope: scope.into(), pairs: Vec::new() }
    }

    /// Appends a counter. Order is preserved — emitters render pairs
    /// in insertion order, so snapshots are deterministic by
    /// construction.
    pub fn push(&mut self, name: &'static str, value: u64) -> &mut Self {
        self.pairs.push((name, value));
        self
    }

    /// The scope label.
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Returns the same counters under a different scope label. Lets a
    /// caller disambiguate two instances of the same stats struct
    /// ("engine" from the direct and the impaired stream, say) before
    /// handing both to [`counters_json`].
    #[must_use]
    pub fn rescoped(mut self, scope: impl Into<String>) -> Self {
        self.scope = scope.into();
        self
    }

    /// Adds another snapshot's counters into this one: values for
    /// names already present are summed, unseen names are appended.
    /// Lets a world fold per-node stats into one fleet-wide snapshot.
    pub fn absorb(&mut self, other: &Snapshot) {
        for &(name, value) in other.pairs() {
            match self.pairs.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => *v += value,
                None => self.pairs.push((name, value)),
            }
        }
    }

    /// The counter pairs, in insertion order.
    pub fn pairs(&self) -> &[(&'static str, u64)] {
        &self.pairs
    }

    /// Looks a counter up by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.pairs.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Renders snapshots as one JSON object — `{"scope": {"name": value,
/// …}, …}` — with `indent` leading spaces on the inner lines. The one
/// generic formatter replacing per-struct field-by-field emitters.
pub fn counters_json(snapshots: &[Snapshot], indent: usize) -> String {
    let pad = " ".repeat(indent);
    let mut out = String::from("{\n");
    for (i, s) in snapshots.iter().enumerate() {
        out.push_str(&format!("{pad}  \"{}\": {{", s.scope()));
        for (j, (name, value)) in s.pairs().iter().enumerate() {
            out.push_str(&format!(
                "\"{name}\": {value}{}",
                if j + 1 < s.pairs().len() { ", " } else { "" }
            ));
        }
        out.push_str(&format!("}}{}\n", if i + 1 < snapshots.len() { "," } else { "" }));
    }
    out.push_str(&format!("{pad}}}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_preserves_order_and_lookup() {
        let mut s = Snapshot::new("engine");
        s.push("rx_packets", 3).push("tx_packets", 5);
        assert_eq!(s.pairs(), [("rx_packets", 3), ("tx_packets", 5)]);
        assert_eq!(s.get("tx_packets"), Some(5));
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn counters_json_is_deterministic_and_nested() {
        let mut a = Snapshot::new("engine");
        a.push("rx_packets", 1);
        let mut b = Snapshot::new("fabric");
        b.push("delivered", 2).push("dropped", 0);
        let json = counters_json(&[a.clone(), b.clone()], 2);
        assert_eq!(
            json,
            "{\n    \"engine\": {\"rx_packets\": 1},\n    \"fabric\": {\"delivered\": 2, \"dropped\": 0}\n  }"
        );
        assert_eq!(json, counters_json(&[a, b], 2));
    }

    #[test]
    fn empty_snapshot_list_renders_empty_object() {
        assert_eq!(counters_json(&[], 0), "{\n}");
    }

    #[test]
    fn rescoped_renames_without_touching_pairs() {
        let mut s = Snapshot::new("engine");
        s.push("rx_packets", 7);
        let r = s.clone().rescoped("direct_engine");
        assert_eq!(r.scope(), "direct_engine");
        assert_eq!(r.pairs(), s.pairs());
    }

    #[test]
    fn absorb_sums_matching_names_and_appends_new_ones() {
        let mut a = Snapshot::new("engine");
        a.push("rx_packets", 3).push("tx_packets", 5);
        let mut b = Snapshot::new("engine");
        b.push("rx_packets", 4).push("checksum_drops", 1);
        a.absorb(&b);
        assert_eq!(a.pairs(), [("rx_packets", 7), ("tx_packets", 5), ("checksum_drops", 1)]);
    }
}
