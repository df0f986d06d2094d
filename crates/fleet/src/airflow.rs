//! The rack-scale airflow graph.
//!
//! §4.2.2 models a drive's internal-air temperature against the ambient
//! at its *inlet*; `diskthermal::array` chains that model along one
//! serial airflow to show downstream bays running hotter. This module
//! generalizes the chain to a directed acyclic coupling graph: each
//! drive's local ambient is the rack inlet plus a weighted sum of
//! upstream drives' exhaust heat, `T_i = T_inlet + Σ_j k_ij · P_j`, with
//! `k_ij` in kelvin per watt. The network stays linear — drive heat
//! output does not depend on temperature — so one pass per sync epoch
//! suffices, exactly like [`diskthermal::AirflowPath::bay_states`]'s
//! single-pass argument.
//!
//! Neither topology materializes the coupling matrix; both evaluate it
//! in O(n) time from O(1) parameters. [`AirflowGraph::columns`] (and
//! [`AirflowGraph::serial`], one column of every drive) are independent
//! serial **columns**: each bay is preheated at one `k` by every bay
//! above it in its column, so a running preheat sum down the column
//! yields every ambient in a single pass. [`AirflowGraph::hall`] is a
//! three-level **rack → row → hall hierarchy**: drives within a rack
//! couple at `k_drive` K/W in bay order, whole racks couple to later
//! racks in their row at `k_rack` against the *rack total* heat, and
//! whole rows couple to later rows at `k_row` against the row total.
//! Prefix sums over per-rack aggregates evaluate that form, and the
//! per-rack folds are independent, so the fleet parallelizes them while
//! only the small per-level aggregates couple serially.

use crate::error::FleetError;
use serde::{Deserialize, Serialize};
use units::{Celsius, TempDelta};

/// The per-level shape and coupling coefficients of a
/// [`AirflowGraph::hall`] hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct HallShape {
    /// Drives per rack (the last rack may be partial).
    pub per_rack: usize,
    /// Racks per row (the last row may be partial).
    pub racks_per_row: usize,
    /// K/W from each upstream drive in the same rack.
    pub k_drive: f64,
    /// K/W from each upstream rack's total heat, within the row.
    pub k_rack: f64,
    /// K/W from each upstream row's total heat.
    pub k_row: f64,
}

/// How the coupling matrix is implied; neither form stores it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Topology {
    /// Independent serial columns of `per_column` bays (the last may be
    /// short): each bay is preheated at `k` K/W by every bay above it
    /// in its own column.
    Columns { per_column: usize, k: f64 },
    /// The rack → row → hall hierarchy.
    Hierarchy(HallShape),
}

/// A directed acyclic thermal-coupling graph over the fleet's drives.
///
/// Air flows forward through the bay indices: a drive is preheated only
/// by drives with a smaller index, which keeps the graph acyclic by
/// construction. Columns restart that flow every `per_column` bays; the
/// hierarchy ([`AirflowGraph::hall`]) keeps the same forward-only
/// discipline level by level: bay order within a rack, rack order
/// within a row, row order within the hall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AirflowGraph {
    inlet: Celsius,
    drives: usize,
    topology: Topology,
}

impl AirflowGraph {
    /// Validates a topology over `drives` bays.
    fn checked(inlet: Celsius, drives: usize, topology: Topology) -> Result<Self, FleetError> {
        if drives == 0 {
            return Err(FleetError::Config("airflow graph has no drives".into()));
        }
        match &topology {
            Topology::Columns { per_column, k } => {
                if *per_column == 0 {
                    return Err(FleetError::Config(
                        "columns need at least one drive each".into(),
                    ));
                }
                coupling("k", *k)?;
            }
            Topology::Hierarchy(shape) => {
                if shape.per_rack == 0 || shape.racks_per_row == 0 {
                    return Err(FleetError::Config(
                        "hall racks and rows need at least one member each".into(),
                    ));
                }
                coupling("k_drive", shape.k_drive)?;
                coupling("k_rack", shape.k_rack)?;
                coupling("k_row", shape.k_row)?;
            }
        }
        Ok(Self {
            inlet,
            drives,
            topology,
        })
    }

    /// Re-checks a graph that did not come from a constructor (a
    /// deserialized fleet state), so a crafted body fails with a typed
    /// error instead of a panic on the first evaluation.
    ///
    /// # Errors
    ///
    /// As the constructors: no drives, empty columns / racks / rows,
    /// non-finite or negative coefficients.
    pub(crate) fn validate(&self) -> Result<(), FleetError> {
        Self::checked(self.inlet, self.drives, self.topology).map(drop)
    }

    /// A rack → row → hall hierarchy: racks of `per_rack` drives stand
    /// in rows of `racks_per_row` racks. A drive is preheated at
    /// `k_drive` K/W by each drive above it in its own rack, at
    /// `k_rack` K/W by each earlier rack's *total* heat within its row,
    /// and at `k_row` K/W by each earlier row's total heat. The last
    /// rack and row may be partial.
    ///
    /// # Errors
    ///
    /// Rejects `drives == 0`, zero `per_rack` / `racks_per_row`, and
    /// non-finite or negative coefficients.
    pub fn hall(
        drives: usize,
        per_rack: usize,
        racks_per_row: usize,
        inlet: Celsius,
        k_drive: f64,
        k_rack: f64,
        k_row: f64,
    ) -> Result<Self, FleetError> {
        let shape = HallShape {
            per_rack,
            racks_per_row,
            k_drive,
            k_rack,
            k_row,
        };
        Self::checked(inlet, drives, Topology::Hierarchy(shape))
    }

    /// One serial airflow path: every drive is preheated by *all* drives
    /// before it, each contributing `1 / stream_w_per_k` kelvin per watt
    /// — the rack-scale version of [`diskthermal::AirflowPath`]. This
    /// is [`Self::columns`] with a single column.
    ///
    /// # Errors
    ///
    /// Rejects `drives == 0` and a non-positive stream capacity rate.
    pub fn serial(drives: usize, inlet: Celsius, stream_w_per_k: f64) -> Result<Self, FleetError> {
        Self::columns(drives, drives.max(1), inlet, stream_w_per_k)
    }

    /// Independent serial columns of `per_column` drives each: drive `i`
    /// is preheated only by the drives above it in its own column. The
    /// last partial column just ends early.
    ///
    /// # Errors
    ///
    /// Rejects `drives == 0`, `per_column == 0`, and a non-positive
    /// stream capacity rate.
    pub fn columns(
        drives: usize,
        per_column: usize,
        inlet: Celsius,
        stream_w_per_k: f64,
    ) -> Result<Self, FleetError> {
        if stream_w_per_k <= 0.0 || !stream_w_per_k.is_finite() {
            return Err(FleetError::Config(format!(
                "stream capacity rate must be positive and finite, got {stream_w_per_k}"
            )));
        }
        let k = 1.0 / stream_w_per_k;
        Self::checked(inlet, drives, Topology::Columns { per_column, k })
    }

    /// Number of drives in the graph.
    pub fn len(&self) -> usize {
        self.drives
    }

    /// Moves the rack inlet temperature (the "what if the CRAC setpoint
    /// rose 5 °C?" perturbation). The coupling topology is untouched.
    pub fn set_inlet(&mut self, inlet: Celsius) {
        self.inlet = inlet;
    }

    /// Whether the graph is empty (never true for a validated graph).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rack inlet temperature.
    pub fn inlet(&self) -> Celsius {
        self.inlet
    }

    /// Local ambient each drive sees when the fleet rejects `heats_w`
    /// watts per drive: inlet plus the weighted upstream preheat, in
    /// O(n).
    ///
    /// A column's running preheat starts at `-0.0`, the start of
    /// `f64`'s `Sum`, and adds `heat · k` bay by bay, so every ambient
    /// equals the dense `inlet + Σ_{j above i} h_j · k` fold bit for
    /// bit. The hierarchy uses the same per-rack prefix-sum helpers the
    /// fleet's split-phase epoch boundary uses, so both paths produce
    /// bit-identical temperatures.
    ///
    /// # Panics
    ///
    /// Panics if `heats_w.len()` does not match the graph.
    pub fn local_ambients(&self, heats_w: &[f64]) -> Vec<Celsius> {
        assert_eq!(heats_w.len(), self.len(), "one heat term per drive");
        let mut out = Vec::with_capacity(heats_w.len());
        match &self.topology {
            Topology::Columns { per_column, k } => {
                for column in heats_w.chunks(*per_column) {
                    let mut preheat = -0.0;
                    for &heat in column {
                        out.push(self.inlet + TempDelta::new(preheat));
                        preheat += heat * k;
                    }
                }
            }
            Topology::Hierarchy(shape) => {
                let bases = self.rack_preheats(shape, &rack_heats(shape, heats_w));
                for (rack, chunk) in heats_w.chunks(shape.per_rack).enumerate() {
                    rack_ambients_into(self.inlet, bases[rack], shape.k_drive, chunk, &mut out);
                }
            }
        }
        out
    }

    /// The hierarchy's shape, if this graph is hierarchical. The fleet
    /// uses this to split ambient evaluation into a parallel per-rack
    /// pass plus a tiny serial per-level reduce.
    pub(crate) fn hall_shape(&self) -> Option<HallShape> {
        match &self.topology {
            Topology::Columns { .. } => None,
            Topology::Hierarchy(shape) => Some(*shape),
        }
    }

    /// Per-rack preheat above the inlet (kelvin) from the *other*
    /// levels: earlier rows at `k_row`, earlier racks in the same row
    /// at `k_rack`. Intra-rack preheat is the caller's per-rack fold.
    /// O(racks), serial — this is the only cross-rack coupling step.
    pub(crate) fn rack_preheats(&self, shape: &HallShape, rack_heats: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(rack_heats.len());
        let mut row_prefix = 0.0;
        for row_racks in rack_heats.chunks(shape.racks_per_row) {
            let mut rack_prefix = 0.0;
            for &heat in row_racks {
                out.push(shape.k_row * row_prefix + shape.k_rack * rack_prefix);
                rack_prefix += heat;
            }
            row_prefix += rack_prefix;
        }
        out
    }
}

/// Rejects a coupling coefficient that is non-finite or negative.
fn coupling(name: &str, k: f64) -> Result<(), FleetError> {
    if k.is_finite() && k >= 0.0 {
        Ok(())
    } else {
        Err(FleetError::Config(format!(
            "airflow coupling {name} must be finite and non-negative, got {k}"
        )))
    }
}

/// Total heat per rack, folded in bay order (the last rack may be
/// short). Independent across racks, so the fleet folds them in
/// parallel.
pub(crate) fn rack_heats(shape: &HallShape, heats_w: &[f64]) -> Vec<f64> {
    heats_w
        .chunks(shape.per_rack)
        .map(|rack| rack.iter().sum())
        .collect()
}

/// Appends one rack's drive ambients: `base_preheat` kelvin above the
/// inlet from the rack/row levels, plus `k_drive` per upstream drive in
/// this rack, folded in bay order. Pure in its inputs, so racks
/// evaluate independently (and in parallel) without changing a bit.
pub(crate) fn rack_ambients_into(
    inlet: Celsius,
    base_preheat: f64,
    k_drive: f64,
    rack_heats_w: &[f64],
    out: &mut Vec<Celsius>,
) {
    let mut prefix = 0.0;
    for &heat in rack_heats_w {
        out.push(inlet + TempDelta::new(base_preheat + k_drive * prefix));
        prefix += heat;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_graph_matches_the_single_path_preheat_formula() {
        let g = AirflowGraph::serial(4, Celsius::new(28.0), 20.0).unwrap();
        let ambients = g.local_ambients(&[10.0, 10.0, 10.0, 10.0]);
        // Bay i preheated by i upstream drives at 10 W each over 20 W/K.
        for (i, a) in ambients.iter().enumerate() {
            let expect = 28.0 + 10.0 * i as f64 / 20.0;
            assert!((a.get() - expect).abs() < 1e-12, "bay {i}: {a} vs {expect}");
        }
    }

    #[test]
    fn columns_isolate_their_preheat() {
        let g = AirflowGraph::columns(4, 2, Celsius::new(25.0), 10.0).unwrap();
        let ambients = g.local_ambients(&[8.0, 8.0, 8.0, 8.0]);
        // Column heads (0 and 2) see pristine inlet air.
        assert_eq!(ambients[0], Celsius::new(25.0));
        assert_eq!(ambients[2], Celsius::new(25.0));
        assert!(ambients[1] > ambients[0]);
        assert_eq!(ambients[1], ambients[3]);
    }

    #[test]
    fn bad_coefficients_and_empty_graphs_are_rejected() {
        let inlet = Celsius::new(28.0);
        assert!(AirflowGraph::serial(0, inlet, 20.0).is_err());
        assert!(AirflowGraph::columns(0, 2, inlet, 20.0).is_err());
        assert!(AirflowGraph::columns(4, 0, inlet, 20.0).is_err());
        assert!(AirflowGraph::serial(3, inlet, 0.0).is_err());
        assert!(AirflowGraph::serial(3, inlet, f64::NAN).is_err());
        // A subnormal stream rate passes its own check but implies an
        // infinite coefficient.
        assert!(AirflowGraph::serial(3, inlet, 1e-310).is_err());
    }

    #[test]
    fn hall_matches_the_equivalent_flat_graph() {
        // 2 rows of 3 racks of 2 drives. Evaluate the dense matrix the
        // hierarchy implies term by term and check both forms agree
        // (modulo summation order, hence the 1e-9 tolerance).
        let (per_rack, racks_per_row) = (2usize, 3usize);
        let (kd, kr, kw) = (0.05, 0.02, 0.01);
        let drives = 12;
        let inlet = Celsius::new(28.0);
        let hall = AirflowGraph::hall(drives, per_rack, racks_per_row, inlet, kd, kr, kw).unwrap();
        let coupling = |i: usize, j: usize| {
            let (rack_i, row_i) = (i / per_rack, i / per_rack / racks_per_row);
            let (rack_j, row_j) = (j / per_rack, j / per_rack / racks_per_row);
            if rack_j == rack_i {
                kd
            } else if row_j == row_i {
                kr
            } else {
                kw
            }
        };
        let heats: Vec<f64> = (0..drives).map(|i| 6.0 + i as f64 * 0.5).collect();
        for (i, h) in hall.local_ambients(&heats).iter().enumerate() {
            let dense = inlet + TempDelta::new((0..i).map(|j| heats[j] * coupling(i, j)).sum());
            assert!(
                (h.get() - dense.get()).abs() < 1e-9,
                "drive {i}: {h} vs {dense}"
            );
        }
    }

    #[test]
    fn deserialized_graphs_are_revalidated() {
        let g = AirflowGraph::columns(4, 2, Celsius::new(25.0), 10.0).unwrap();
        assert!(g.validate().is_ok());
        let json = serde_json::to_string(&g).unwrap();
        let tampered = json.replace("\"per_column\":2", "\"per_column\":0");
        assert_ne!(tampered, json, "the column length must be rewritten");
        let bad: AirflowGraph = serde_json::from_str(&tampered).unwrap();
        assert!(matches!(bad.validate(), Err(FleetError::Config(_))));
    }

    #[test]
    fn hall_levels_preheat_in_order() {
        // 2 racks per row, 2 drives per rack, 8 drives = 2 rows.
        let g = AirflowGraph::hall(8, 2, 2, Celsius::new(25.0), 0.1, 0.05, 0.01).unwrap();
        let a = g.local_ambients(&[10.0; 8]);
        assert_eq!(a[0], Celsius::new(25.0), "first drive sees pristine inlet");
        // Second drive in rack 0: intra-rack preheat only.
        assert!((a[1].get() - 26.0).abs() < 1e-12);
        // First drive of rack 1 (same row): rack-level preheat of 20 W.
        assert!((a[2].get() - 26.0).abs() < 1e-12);
        // First drive of row 1: row-level preheat of 40 W at 0.01.
        assert!((a[4].get() - 25.4).abs() < 1e-12);
        // Partial tail rack is fine.
        let partial = AirflowGraph::hall(7, 2, 2, Celsius::new(25.0), 0.1, 0.05, 0.01).unwrap();
        assert_eq!(partial.len(), 7);
        assert_eq!(partial.local_ambients(&[10.0; 7]).len(), 7);
    }

    #[test]
    fn hall_rejects_bad_shapes() {
        let inlet = Celsius::new(25.0);
        assert!(AirflowGraph::hall(0, 2, 2, inlet, 0.1, 0.1, 0.1).is_err());
        assert!(AirflowGraph::hall(8, 0, 2, inlet, 0.1, 0.1, 0.1).is_err());
        assert!(AirflowGraph::hall(8, 2, 0, inlet, 0.1, 0.1, 0.1).is_err());
        assert!(AirflowGraph::hall(8, 2, 2, inlet, -0.1, 0.1, 0.1).is_err());
        assert!(AirflowGraph::hall(8, 2, 2, inlet, 0.1, f64::NAN, 0.1).is_err());
    }

    #[test]
    fn heat_redistribution_leaves_downstream_preheat_unchanged() {
        // Moving load between upstream drives cannot change the total
        // preheat a serial path's last bay sees — the physical argument
        // for why thermal-aware routing helps the hottest drive.
        let g = AirflowGraph::serial(4, Celsius::new(28.0), 12.0).unwrap();
        let balanced = g.local_ambients(&[8.0, 8.0, 8.0, 20.0]);
        let skewed = g.local_ambients(&[14.0, 4.0, 6.0, 20.0]);
        assert!((balanced[3].get() - skewed[3].get()).abs() < 1e-12);
    }
}
