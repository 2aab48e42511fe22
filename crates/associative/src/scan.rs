//! The fixed combine tree both sweeps of the associative smoother run.
//!
//! [`tree_levels`] lists the pairings of a work-efficient (Brent–Kung)
//! inclusive scan: an up-sweep reducing power-of-two blocks followed by a
//! down-sweep distributing the partial prefixes.  Two properties matter to
//! the smoother:
//!
//! * **Fixed association order.**  The tree's combine order is a function
//!   of the length alone — never of thread count, grain, or steal timing —
//!   so `ExecPolicy::Seq` and `ExecPolicy::par()` perform the *identical*
//!   floating-point operations and the smoother stays bitwise
//!   deterministic across policies.
//! * **Disjoint pairs per level.**  Within one level every `(src, dst)`
//!   pair touches distinct slots, so a level can combine in parallel and
//!   write back serially.
//!
//! The same pair lists drive the backward (suffix) sweep by mirroring
//! indices (`i ↦ len−1−i`) and flipping the combine's operand order.

/// The sweep levels of a fixed-tree inclusive scan over `len` slots, in
/// execution order (up-sweep then down-sweep).  Each level holds disjoint
/// `(src, dst)` pairs, each combining `slot[dst] = slot[src] ⊗ slot[dst]`
/// with `src < dst`.  Empty levels are omitted, so `len ≤ 1` has none.
pub(crate) fn tree_levels(len: usize) -> Vec<Vec<(usize, usize)>> {
    let mut levels = Vec::new();
    // Up-sweep: stride doubles; combine (i − stride) into i for
    // i = 2·stride − 1, step 2·stride.
    let mut stride = 1usize;
    while stride < len {
        let pairs: Vec<_> = (2 * stride - 1..len)
            .step_by(2 * stride)
            .map(|dst| (dst - stride, dst))
            .collect();
        if !pairs.is_empty() {
            levels.push(pairs);
        }
        stride *= 2;
    }
    // Down-sweep: stride halves; combine i into (i + stride) for
    // i = 2·stride − 1, step 2·stride.
    stride /= 2;
    while stride >= 1 {
        let pairs: Vec<_> = (2 * stride - 1..len.saturating_sub(stride))
            .step_by(2 * stride)
            .map(|src| (src, src + stride))
            .collect();
        if !pairs.is_empty() {
            levels.push(pairs);
        }
        stride /= 2;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: run the tree's pairs over an array of vectors with
    /// list concatenation as the (associative, non-commutative) operation;
    /// every slot must end up holding the exact prefix in order.
    fn check_prefix(len: usize) {
        let mut slots: Vec<Vec<usize>> = (0..len).map(|i| vec![i]).collect();
        for pairs in tree_levels(len) {
            // Pairs must be disjoint within a level (parallel-safety).
            let mut touched = std::collections::HashSet::new();
            for &(src, dst) in &pairs {
                assert!(touched.insert(src), "len={len}: src {src} reused");
                assert!(touched.insert(dst), "len={len}: dst {dst} reused");
                assert!(src < dst);
            }
            for (src, dst) in pairs {
                let mut combined = slots[src].clone();
                combined.extend_from_slice(&slots[dst]);
                slots[dst] = combined;
            }
        }
        for (i, slot) in slots.iter().enumerate() {
            let expect: Vec<usize> = (0..=i).collect();
            assert_eq!(slot, &expect, "len={len}, slot {i}");
        }
    }

    #[test]
    fn prefix_scan_is_exact_for_all_small_lengths() {
        for len in 1..=65 {
            check_prefix(len);
        }
        check_prefix(100);
        check_prefix(128);
        check_prefix(1000);
    }

    /// The mirrored interpretation (suffix sweep) must produce exact
    /// suffixes: mirror indices and flip the operand order.
    #[test]
    fn mirrored_pairs_form_an_exact_suffix_scan() {
        for len in [1usize, 2, 3, 7, 8, 9, 31, 33, 100] {
            let mut slots: Vec<Vec<usize>> = (0..len).map(|i| vec![i]).collect();
            for pairs in tree_levels(len) {
                for (src, dst) in pairs {
                    let (msrc, mdst) = (len - 1 - src, len - 1 - dst);
                    // earlier ⊗ later with the mirrored dst as the earlier slot.
                    let mut combined = slots[mdst].clone();
                    combined.extend_from_slice(&slots[msrc]);
                    slots[mdst] = combined;
                }
            }
            for (i, slot) in slots.iter().enumerate() {
                let expect: Vec<usize> = (i..len).collect();
                assert_eq!(slot, &expect, "len={len}, slot {i}");
            }
        }
    }

    #[test]
    fn single_slot_schedule_has_no_levels() {
        assert!(tree_levels(0).is_empty());
        assert!(tree_levels(1).is_empty());
        assert_eq!(tree_levels(2), vec![vec![(0, 1)]]);
    }
}
