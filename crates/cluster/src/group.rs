//! Ordered sets of devices used as allocation targets.

use std::fmt;

use crate::{ClusterError, DeviceId};

/// An ordered, duplicate-free set of devices.
///
/// Device groups are the unit of placement in Spindle: each sliced MetaOp in a
/// wave executes on one group, parameter synchronisation happens within a
/// group, and data flows move between groups across wave boundaries.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DeviceGroup {
    devices: Vec<DeviceId>,
}

impl DeviceGroup {
    /// Creates a group from the given devices.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyGroup`] if `devices` is empty and
    /// [`ClusterError::DuplicateDevice`] if any device appears twice.
    pub fn new<I: IntoIterator<Item = DeviceId>>(devices: I) -> Result<Self, ClusterError> {
        let devices: Vec<DeviceId> = devices.into_iter().collect();
        if devices.is_empty() {
            return Err(ClusterError::EmptyGroup);
        }
        let mut seen = devices.clone();
        seen.sort_unstable();
        for w in seen.windows(2) {
            if w[0] == w[1] {
                return Err(ClusterError::DuplicateDevice(w[0]));
            }
        }
        Ok(Self { devices })
    }

    /// Creates a group from devices the caller knows to be distinct (e.g.
    /// taken from a free list), skipping the duplicate check of
    /// [`new`](Self::new) and of collecting; debug builds still check.
    #[must_use]
    pub fn from_distinct(devices: Vec<DeviceId>) -> Self {
        debug_assert!(
            devices
                .iter()
                .enumerate()
                .all(|(i, d)| !devices[..i].contains(d)),
            "duplicate device in {devices:?}"
        );
        Self { devices }
    }

    /// Creates a group of `count` consecutive devices starting at `first`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn contiguous(first: DeviceId, count: usize) -> Self {
        assert!(count > 0, "device group must not be empty");
        let devices = (0..count as u32).map(|k| DeviceId(first.0 + k)).collect();
        Self { devices }
    }

    /// Number of devices in the group.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` if the group holds no devices. Groups constructed through
    /// the public constructors are never empty; this exists for completeness
    /// (and because `Default` produces an empty group).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The devices in this group, in placement order.
    #[must_use]
    pub fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// Returns `true` if `device` belongs to the group.
    #[must_use]
    pub fn contains(&self, device: DeviceId) -> bool {
        self.devices.contains(&device)
    }

    /// Iterates over the devices of the group.
    pub fn iter(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.devices.iter().copied()
    }

    /// Returns `true` if the two groups share at least one device.
    #[must_use]
    pub fn overlaps(&self, other: &DeviceGroup) -> bool {
        self.devices.iter().any(|d| other.contains(*d))
    }

    /// Returns a sorted copy of the group (canonical form used as a map key,
    /// e.g. for the parameter device-group pool of §3.6).
    #[must_use]
    pub fn sorted(&self) -> DeviceGroup {
        let mut devices = self.devices.clone();
        devices.sort_unstable();
        DeviceGroup { devices }
    }
}

impl fmt::Display for DeviceGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.devices.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<DeviceId> for DeviceGroup {
    /// Collects devices into a group, silently dropping duplicates: the first
    /// occurrence of each device keeps its place. O(n log n).
    fn from_iter<T: IntoIterator<Item = DeviceId>>(iter: T) -> Self {
        let mut devices: Vec<DeviceId> = iter.into_iter().collect();
        // Strictly increasing input (islands, sorted pool keys) has no
        // duplicates; anything else is checked on a sorted copy.
        if devices.windows(2).all(|w| w[0] < w[1]) {
            return Self { devices };
        }
        let mut sorted = devices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() < devices.len() {
            let mut seen = vec![false; sorted.len()];
            devices.retain(|d| {
                let slot = sorted
                    .binary_search(d)
                    .expect("every device is in the sorted copy");
                !std::mem::replace(&mut seen[slot], true)
            });
        }
        Self { devices }
    }
}

impl<'a> IntoIterator for &'a DeviceGroup {
    type Item = DeviceId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, DeviceId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.devices.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty_and_duplicates() {
        assert_eq!(DeviceGroup::new([]), Err(ClusterError::EmptyGroup));
        assert_eq!(
            DeviceGroup::new([DeviceId(1), DeviceId(1)]),
            Err(ClusterError::DuplicateDevice(DeviceId(1)))
        );
    }

    #[test]
    fn contiguous_builds_expected_range() {
        let g = DeviceGroup::contiguous(DeviceId(4), 4);
        assert_eq!(
            g.devices(),
            &[DeviceId(4), DeviceId(5), DeviceId(6), DeviceId(7)]
        );
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn contiguous_zero_panics() {
        let _ = DeviceGroup::contiguous(DeviceId(0), 0);
    }

    #[test]
    fn overlap() {
        let a = DeviceGroup::contiguous(DeviceId(0), 4);
        let b = DeviceGroup::contiguous(DeviceId(2), 4);
        let c = DeviceGroup::contiguous(DeviceId(8), 2);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn from_distinct_keeps_the_given_order() {
        let ids = [DeviceId(5), DeviceId(2), DeviceId(9)];
        let g = DeviceGroup::from_distinct(ids.to_vec());
        assert_eq!(g.devices(), &ids);
        assert_eq!(g, ids.into_iter().collect());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate device")]
    fn from_distinct_checks_distinctness_in_debug_builds() {
        let _ = DeviceGroup::from_distinct(vec![DeviceId(1), DeviceId(2), DeviceId(1)]);
    }

    #[test]
    fn from_iterator_dedups() {
        let g: DeviceGroup = [DeviceId(3), DeviceId(1), DeviceId(3)]
            .into_iter()
            .collect();
        assert_eq!(g.devices(), &[DeviceId(3), DeviceId(1)]);
        assert_eq!(g.sorted().devices(), &[DeviceId(1), DeviceId(3)]);
    }

    /// The quadratic first-occurrence loop the collector replaced.
    fn first_occurrences(ids: &[u32]) -> Vec<DeviceId> {
        let mut devices: Vec<DeviceId> = Vec::new();
        for &id in ids {
            if !devices.contains(&DeviceId(id)) {
                devices.push(DeviceId(id));
            }
        }
        devices
    }

    #[test]
    fn from_iterator_keeps_first_occurrence_order() {
        for ids in [
            &[5u32, 5, 9, 2, 7][..],
            &[9, 2, 5, 2, 7, 5, 1],
            &[4, 8, 1, 6, 1],
            &[3, 3, 3],
            &[7, 2, 9, 7, 2, 9],
            &[6, 0, 3],
            &[],
        ] {
            let g: DeviceGroup = ids.iter().map(|&d| DeviceId(d)).collect();
            assert_eq!(g.devices(), first_occurrences(ids), "input {ids:?}");
        }
    }

    #[test]
    fn from_iterator_returns_a_large_duplicate_free_input_unchanged() {
        // A fixed permutation of 0..1024 (odd multiplier mod a power of two).
        let ids: Vec<DeviceId> = (0..1024u32)
            .map(|i| DeviceId((i * 389 + 17) % 1024))
            .collect();
        let g: DeviceGroup = ids.iter().copied().collect();
        assert_eq!(g.devices(), ids);
        let ascending: DeviceGroup = (0..1024).map(DeviceId).collect();
        assert_eq!(ascending, DeviceGroup::contiguous(DeviceId(0), 1024));
    }

    #[test]
    fn display_is_compact() {
        let g = DeviceGroup::contiguous(DeviceId(0), 2);
        assert_eq!(g.to_string(), "[gpu0,gpu1]");
    }

    #[test]
    fn iteration_matches_devices() {
        let g = DeviceGroup::contiguous(DeviceId(1), 3);
        let via_iter: Vec<DeviceId> = (&g).into_iter().collect();
        assert_eq!(via_iter, g.devices());
        assert_eq!(g.iter().count(), 3);
        assert!(g.contains(DeviceId(2)));
        assert!(!g.contains(DeviceId(9)));
    }
}
