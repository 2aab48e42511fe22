//! Property tests for the parallel primitives: every parallel execution must
//! match its sequential twin exactly.

use kalman_par::{for_each_mut, map_collect, ExecPolicy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn for_each_mut_order_independent(
        items in proptest::collection::vec(-1000i64..1000, 0..500),
        grain in 1usize..32,
    ) {
        let mut seq = items.clone();
        for_each_mut(ExecPolicy::Seq, &mut seq, |i, x| *x = x.wrapping_mul(7) + i as i64);
        let mut par = items.clone();
        for_each_mut(ExecPolicy::par_with_grain(grain), &mut par, |i, x| {
            *x = x.wrapping_mul(7) + i as i64
        });
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn map_collect_preserves_index_mapping(
        n in 0usize..500,
        grain in 1usize..32,
    ) {
        let out = map_collect(ExecPolicy::par_with_grain(grain), n, |i| i * i + 1);
        prop_assert_eq!(out.len(), n);
        for (i, v) in out.iter().enumerate() {
            prop_assert_eq!(*v, i * i + 1);
        }
    }
}
