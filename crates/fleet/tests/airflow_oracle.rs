//! Bit-exact oracle for the implied column topologies: the O(n) running
//! preheat of [`AirflowGraph::serial`] / [`AirflowGraph::columns`] must
//! equal, to the last bit, a dense per-bay sum over every upstream bay
//! in the column — what an explicit coupling list evaluates.

use diskfleet::AirflowGraph;
use proptest::prelude::*;
use units::{Celsius, TempDelta};

/// The dense reference: bay `i` sums `h_j · k` over every bay above it
/// in its column.
fn dense(inlet: Celsius, heats: &[f64], per_column: usize, k: f64) -> Vec<Celsius> {
    (0..heats.len())
        .map(|i| {
            let col_start = i - i % per_column;
            inlet + TempDelta::new((col_start..i).map(|j| heats[j] * k).sum())
        })
        .collect()
}

fn bits(ambients: &[Celsius]) -> Vec<u64> {
    ambients.iter().map(|a| a.get().to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn columns_equal_the_dense_sum_bit_for_bit(
        heats in prop::collection::vec(prop_oneof![Just(0.0), 0.0f64..40.0], 1..65),
        per_column in 1usize..70,
        stream in 0.05f64..100.0,
        inlet in prop_oneof![Just(0.0), Just(-0.0), -10.0f64..45.0],
    ) {
        let (n, inlet, k) = (heats.len(), Celsius::new(inlet), 1.0 / stream);
        let columns = AirflowGraph::columns(n, per_column, inlet, stream).unwrap();
        prop_assert_eq!(
            bits(&columns.local_ambients(&heats)),
            bits(&dense(inlet, &heats, per_column, k))
        );
        let serial = AirflowGraph::serial(n, inlet, stream).unwrap();
        prop_assert_eq!(bits(&serial.local_ambients(&heats)), bits(&dense(inlet, &heats, n, k)));
    }
}
