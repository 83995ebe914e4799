//! Wire codecs for access profiles and accelerator configurations.
//!
//! Access counts are `f64` and must survive a save/load round trip
//! *bit-exactly* (plan energies feed tie-breaking comparisons), so every
//! float travels as its IEEE-754 bit pattern via
//! [`Value::f64_bits`]/[`Value::as_f64_bits`].

use crate::access::{AccessCounts, LayerAccessProfile};
use crate::config::{AcceleratorConfig, GridDims};
use crate::cost::{CostDescriptor, CostFingerprint, CostModelRegistry};
use eyeriss_wire::{Value, WireError};

/// Version of the cost-model descriptor layout inside priced artifacts
/// (plans, plan-cache keys). Version 1 carries the model label plus the
/// exact bit patterns of its five per-level energy costs and five
/// per-level bandwidths, in `Level::ALL` order.
pub const COST_DESCRIPTOR_VERSION: u64 = 1;

/// Encodes which cost model priced an artifact: its label and exact
/// numeric fingerprint.
pub fn encode_cost_descriptor(d: &CostDescriptor) -> Value {
    Value::obj([
        ("v", Value::u64(COST_DESCRIPTOR_VERSION)),
        ("model", Value::str(d.id.label())),
        (
            "energy_bits",
            Value::arr(d.fingerprint.energy_bits.iter().map(|&b| Value::u64(b))),
        ),
        (
            "bw_bits",
            Value::arr(d.fingerprint.bandwidth_bits.iter().map(|&b| Value::u64(b))),
        ),
    ])
}

fn decode_bits5(v: &Value) -> Result<[u64; 5], WireError> {
    let raw = v.as_arr()?;
    if raw.len() != 5 {
        return Err(WireError::Invalid(format!(
            "cost fingerprint carries {} entries, expected 5",
            raw.len()
        )));
    }
    let mut bits = [0u64; 5];
    for (slot, item) in bits.iter_mut().zip(raw) {
        *slot = item.as_u64()?;
    }
    Ok(bits)
}

/// Decodes a cost-model descriptor, resolving the label against `costs`
/// (so the artifact's pricing model must be registered, exactly like a
/// plan's dataflow). The *persisted* fingerprint is kept verbatim: an
/// engine whose registered model now carries different numbers simply
/// never cache-hits the old entries.
///
/// # Errors
///
/// [`WireError::Invalid`] for unknown versions, unregistered labels or a
/// malformed fingerprint.
pub fn decode_cost_descriptor(
    v: &Value,
    costs: &CostModelRegistry,
) -> Result<CostDescriptor, WireError> {
    let version = v.get("v")?.as_u64()?;
    if version != COST_DESCRIPTOR_VERSION {
        return Err(WireError::Invalid(format!(
            "unsupported cost-descriptor version {version} (expected {COST_DESCRIPTOR_VERSION})"
        )));
    }
    let label = v.get("model")?.as_str()?;
    let id = costs
        .by_label(label)
        .map(|m| m.id())
        .ok_or_else(|| WireError::Invalid(format!("unregistered cost model {label:?}")))?;
    Ok(CostDescriptor {
        id,
        fingerprint: CostFingerprint {
            energy_bits: decode_bits5(v.get("energy_bits")?)?,
            bandwidth_bits: decode_bits5(v.get("bw_bits")?)?,
        },
    })
}

/// Encodes one data type's access counts.
pub fn encode_counts(c: &AccessCounts) -> Value {
    Value::obj([
        ("dram_r", Value::f64_bits(c.dram_reads)),
        ("dram_w", Value::f64_bits(c.dram_writes)),
        ("buf_r", Value::f64_bits(c.buffer_reads)),
        ("buf_w", Value::f64_bits(c.buffer_writes)),
        ("hops", Value::f64_bits(c.array_hops)),
        ("rf_r", Value::f64_bits(c.rf_reads)),
        ("rf_w", Value::f64_bits(c.rf_writes)),
    ])
}

/// Decodes one data type's access counts.
///
/// # Errors
///
/// [`WireError`] on missing keys or wrong types.
pub fn decode_counts(v: &Value) -> Result<AccessCounts, WireError> {
    Ok(AccessCounts {
        dram_reads: v.get("dram_r")?.as_f64_bits()?,
        dram_writes: v.get("dram_w")?.as_f64_bits()?,
        buffer_reads: v.get("buf_r")?.as_f64_bits()?,
        buffer_writes: v.get("buf_w")?.as_f64_bits()?,
        array_hops: v.get("hops")?.as_f64_bits()?,
        rf_reads: v.get("rf_r")?.as_f64_bits()?,
        rf_writes: v.get("rf_w")?.as_f64_bits()?,
    })
}

/// Encodes a whole layer access profile.
pub fn encode_profile(p: &LayerAccessProfile) -> Value {
    Value::obj([
        ("ifmap", encode_counts(&p.ifmap)),
        ("filter", encode_counts(&p.filter)),
        ("psum", encode_counts(&p.psum)),
        ("alu", Value::f64_bits(p.alu_ops)),
    ])
}

/// Decodes a layer access profile.
///
/// # Errors
///
/// [`WireError`] on missing keys or wrong types.
pub fn decode_profile(v: &Value) -> Result<LayerAccessProfile, WireError> {
    Ok(LayerAccessProfile {
        ifmap: decode_counts(v.get("ifmap")?)?,
        filter: decode_counts(v.get("filter")?)?,
        psum: decode_counts(v.get("psum")?)?,
        alu_ops: v.get("alu")?.as_f64_bits()?,
    })
}

/// Encodes an accelerator configuration (grid plus exact storage sizes).
pub fn encode_config(hw: &AcceleratorConfig) -> Value {
    Value::obj([
        ("rows", Value::usize(hw.grid.rows)),
        ("cols", Value::usize(hw.grid.cols)),
        ("rf_bytes", Value::f64_bits(hw.rf_bytes_per_pe)),
        ("buffer_bytes", Value::f64_bits(hw.buffer_bytes)),
    ])
}

/// Decodes an accelerator configuration.
///
/// # Errors
///
/// [`WireError::Invalid`] on a degenerate grid; structural errors
/// otherwise.
pub fn decode_config(v: &Value) -> Result<AcceleratorConfig, WireError> {
    let rows = v.get("rows")?.as_usize()?;
    let cols = v.get("cols")?.as_usize()?;
    if rows == 0 || cols == 0 {
        return Err(WireError::Invalid("zero-sized PE grid".into()));
    }
    Ok(AcceleratorConfig {
        grid: GridDims::new(rows, cols),
        rf_bytes_per_pe: v.get("rf_bytes")?.as_f64_bits()?,
        buffer_bytes: v.get("buffer_bytes")?.as_f64_bits()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_roundtrips_bit_exactly() {
        let mut p = LayerAccessProfile::new();
        p.alu_ops = 1.0 / 3.0;
        p.ifmap.dram_reads = 1e300;
        p.filter.rf_writes = f64::MIN_POSITIVE;
        p.psum.array_hops = 12345.6789;
        let back = decode_profile(&encode_profile(&p)).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.alu_ops.to_bits(), p.alu_ops.to_bits());
    }

    #[test]
    fn config_roundtrips() {
        for hw in [
            AcceleratorConfig::eyeriss_chip(),
            AcceleratorConfig::under_baseline_area(256, 0.0),
        ] {
            assert_eq!(decode_config(&encode_config(&hw)).unwrap(), hw);
        }
    }

    #[test]
    fn cost_descriptor_roundtrips_and_screens() {
        use crate::cost::{CostModel, TableIv};
        use crate::energy::{EnergyModel, Level};
        let mut reg = CostModelRegistry::builtin();
        let custom = CostModel::new("lp", EnergyModel::table_iv())
            .with_bandwidth(Level::Dram, 4.0)
            .unwrap();
        reg.register(custom).unwrap();
        for d in [TableIv.descriptor(), custom.descriptor()] {
            let back = decode_cost_descriptor(&encode_cost_descriptor(&d), &reg).unwrap();
            assert_eq!(back, d);
        }
        // Unregistered label → typed error.
        let ghost = decode_cost_descriptor(
            &encode_cost_descriptor(&custom.descriptor()),
            &CostModelRegistry::builtin(),
        );
        assert!(matches!(ghost, Err(WireError::Invalid(_))));
        // The persisted fingerprint survives verbatim even when the
        // registered model under the same label now carries different
        // numbers (so stale entries never cross-hit).
        let mut drifted = CostModelRegistry::builtin();
        drifted
            .register(CostModel::new(
                "lp",
                EnergyModel::new(400.0, 6.0, 2.0, 1.0, 1.0).unwrap(),
            ))
            .unwrap();
        let back = decode_cost_descriptor(&encode_cost_descriptor(&custom.descriptor()), &drifted)
            .unwrap();
        assert_eq!(back.fingerprint, custom.fingerprint());
        assert_ne!(
            back.fingerprint,
            drifted.by_label("lp").unwrap().fingerprint()
        );
    }

    #[test]
    fn zero_grid_is_rejected() {
        let v = Value::obj([
            ("rows", Value::usize(0)),
            ("cols", Value::usize(14)),
            ("rf_bytes", Value::f64_bits(512.0)),
            ("buffer_bytes", Value::f64_bits(1024.0)),
        ]);
        assert!(matches!(decode_config(&v), Err(WireError::Invalid(_))));
    }
}
