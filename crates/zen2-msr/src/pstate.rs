//! P-state definition register encoding (Family 17h).
//!
//! `PStateDef[n]` encodes a core frequency as a frequency ID and divisor ID
//! pair plus a voltage ID:
//!
//! ```text
//! bits  7:0   CpuFid   core frequency ID (multiple of 25 MHz at DID=8)
//! bits 13:8   CpuDfsId  divisor in eighths (8 = /1, 9 = /1.125, ...)
//! bits 21:14  CpuVid   SVI2 voltage ID: V = 1.55 V - 0.00625 V * VID
//! bits 27:22  IddValue expected maximum current of a single core
//! bits 29:28  IddDiv   current divisor (0 = /1, 1 = /10, 2 = /100)
//! bit  63     PstateEn this P-state is valid
//! ```
//!
//! `CoreCOF = 200 MHz * CpuFid / CpuDfsId` (PPR 55803 §2.1.14.3.1) — with
//! the usual DID of 8 this yields the 25 MHz granularity the paper links to
//! Precision Boost's 25 MHz steps.

const FID_MASK: u64 = 0xFF;
const DID_SHIFT: u32 = 8;
const DID_MASK: u64 = 0x3F;
const VID_SHIFT: u32 = 14;
const VID_MASK: u64 = 0xFF;
const IDD_VALUE_SHIFT: u32 = 22;
const IDD_VALUE_MASK: u64 = 0x3F;
const IDD_DIV_SHIFT: u32 = 28;
const IDD_DIV_MASK: u64 = 0x3;
const EN_BIT: u64 = 1 << 63;

/// SVI2 voltage step in volts per VID step.
pub const VID_STEP_V: f64 = 0.00625;
/// SVI2 zero-VID voltage in volts.
pub const VID_BASE_V: f64 = 1.55;

/// A decoded P-state definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PstateDef {
    /// Core frequency ID.
    pub fid: u8,
    /// Frequency divisor in eighths (8 = divide by 1). Zero disables the
    /// divisor logic; such a P-state is treated as invalid.
    pub did: u8,
    /// SVI2 voltage ID.
    pub vid: u8,
    /// Expected maximum current of a single core, in `idd_div` units.
    pub idd_value: u8,
    /// Current divisor selector (0 = A, 1 = dA, 2 = cA).
    pub idd_div: u8,
    /// Whether the P-state is enabled.
    pub enabled: bool,
}

impl PstateDef {
    /// Builds an enabled P-state for a target frequency (MHz, multiple of
    /// 25) and core voltage (V), using DID = 8.
    ///
    /// # Panics
    /// Panics if the frequency is not a positive multiple of 25 MHz
    /// representable in the FID field, or the voltage is outside SVI2 range.
    pub fn for_frequency(freq_mhz: u32, voltage_v: f64) -> Self {
        assert!(
            freq_mhz > 0 && freq_mhz.is_multiple_of(25),
            "{freq_mhz} MHz is not a 25 MHz multiple"
        );
        let fid = freq_mhz / 25;
        assert!(fid <= 0xFF, "{freq_mhz} MHz does not fit in CpuFid at DID=8");
        assert!(
            (0.0..=VID_BASE_V).contains(&voltage_v),
            "{voltage_v} V outside SVI2 range [0, {VID_BASE_V}]"
        );
        let vid = ((VID_BASE_V - voltage_v) / VID_STEP_V).round() as u8;
        Self { fid: fid as u8, did: 8, vid, idd_value: 0, idd_div: 0, enabled: true }
    }

    /// Core operating frequency in MHz (`200 * FID / DID`), or `None` if the
    /// P-state is disabled or has a zero divisor.
    pub fn frequency_mhz(&self) -> Option<u32> {
        if !self.enabled || self.did == 0 {
            return None;
        }
        Some(200 * self.fid as u32 / self.did as u32)
    }

    /// Core voltage in volts decoded from the VID field.
    pub fn voltage_v(&self) -> f64 {
        VID_BASE_V - VID_STEP_V * self.vid as f64
    }

    /// Encodes into the 64-bit register format.
    pub fn encode(&self) -> u64 {
        let mut raw = (self.fid as u64) & FID_MASK;
        raw |= ((self.did as u64) & DID_MASK) << DID_SHIFT;
        raw |= ((self.vid as u64) & VID_MASK) << VID_SHIFT;
        raw |= ((self.idd_value as u64) & IDD_VALUE_MASK) << IDD_VALUE_SHIFT;
        raw |= ((self.idd_div as u64) & IDD_DIV_MASK) << IDD_DIV_SHIFT;
        if self.enabled {
            raw |= EN_BIT;
        }
        raw
    }

    /// Decodes from the 64-bit register format.
    pub fn decode(raw: u64) -> Self {
        Self {
            fid: (raw & FID_MASK) as u8,
            did: ((raw >> DID_SHIFT) & DID_MASK) as u8,
            vid: ((raw >> VID_SHIFT) & VID_MASK) as u8,
            idd_value: ((raw >> IDD_VALUE_SHIFT) & IDD_VALUE_MASK) as u8,
            idd_div: ((raw >> IDD_DIV_SHIFT) & IDD_DIV_MASK) as u8,
            enabled: raw & EN_BIT != 0,
        }
    }
}

/// The machine's P-state table: up to eight definitions plus the current
/// limit, in hardware numbering (P0 = fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct PstateTable {
    defs: Vec<PstateDef>,
}

impl PstateTable {
    /// Builds a table from enabled definitions, fastest first.
    ///
    /// # Panics
    /// Panics if more than eight P-states are supplied ("a maximum of eight
    /// P-states can be defined", PPR §2.1.14.3) or the list is empty.
    pub fn new(defs: Vec<PstateDef>) -> Self {
        assert!(!defs.is_empty(), "at least one P-state is required");
        assert!(defs.len() <= 8, "at most 8 P-states can be defined");
        Self { defs }
    }

    /// The paper's EPYC 7502 table: 2.5 GHz (nominal), 2.2 GHz, 1.5 GHz.
    ///
    /// Voltages follow the calibration in `zen2-power`: they reproduce the
    /// measured active-power ratios between the three frequencies.
    pub fn epyc_7502() -> Self {
        Self::new(vec![
            PstateDef::for_frequency(2500, 1.000),
            PstateDef::for_frequency(2200, 0.950),
            PstateDef::for_frequency(1500, 0.850),
        ])
    }

    /// An EPYC 7742 table (64 cores, 2.25 GHz nominal) for the paper's
    /// future-work many-core analysis.
    pub fn epyc_7742() -> Self {
        Self::new(vec![
            PstateDef::for_frequency(2250, 0.900),
            PstateDef::for_frequency(1800, 0.830),
            PstateDef::for_frequency(1500, 0.780),
        ])
    }

    /// Number of defined P-states.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The definition for P-state `index`, if defined.
    pub fn get(&self, index: usize) -> Option<&PstateDef> {
        self.defs.get(index)
    }

    /// All defined P-state frequencies in MHz, fastest first.
    pub fn frequencies_mhz(&self) -> Vec<u32> {
        self.defs.iter().filter_map(|d| d.frequency_mhz()).collect()
    }

    /// Finds the P-state index whose frequency matches `freq_mhz` exactly.
    pub fn index_of_frequency(&self, freq_mhz: u32) -> Option<usize> {
        self.defs.iter().position(|d| d.frequency_mhz() == Some(freq_mhz))
    }

    /// The value of the `PStateCurLim` register for this table:
    /// `CurPstateLimit` in bits 2:0 (fastest allowed = 0) and `PstateMaxVal`
    /// in bits 6:4 (slowest valid index).
    pub fn cur_lim_register(&self) -> u64 {
        let max = (self.defs.len() as u64 - 1) & 0x7;
        max << 4
    }

    /// Parses the number of available P-states from a `PStateCurLim` value,
    /// the way the paper determines "the actual number ... by polling the
    /// P-state current limit MSR".
    pub fn num_pstates_from_cur_lim(raw: u64) -> usize {
        (((raw >> 4) & 0x7) + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_epyc_values() {
        for (mhz, v) in [(2500u32, 1.000f64), (2200, 0.950), (1500, 0.850)] {
            let def = PstateDef::for_frequency(mhz, v);
            let round = PstateDef::decode(def.encode());
            assert_eq!(round, def);
            assert_eq!(round.frequency_mhz(), Some(mhz));
            assert!((round.voltage_v() - v).abs() < VID_STEP_V, "voltage quantization");
        }
    }

    #[test]
    fn frequency_formula_matches_ppr() {
        // 200 * FID / DID: FID=100, DID=8 -> 2500 MHz.
        let def = PstateDef { fid: 100, did: 8, vid: 88, idd_value: 0, idd_div: 0, enabled: true };
        assert_eq!(def.frequency_mhz(), Some(2500));
        // Divisor of 16 halves the frequency.
        let def = PstateDef { did: 16, ..def };
        assert_eq!(def.frequency_mhz(), Some(1250));
    }

    #[test]
    fn twenty_five_mhz_granularity() {
        // Consecutive FIDs at DID=8 step by exactly 25 MHz (SenseMI /
        // Precision Boost granularity noted in Section III-B).
        let a = PstateDef { fid: 100, did: 8, vid: 0, idd_value: 0, idd_div: 0, enabled: true };
        let b = PstateDef { fid: 101, ..a };
        assert_eq!(b.frequency_mhz().unwrap() - a.frequency_mhz().unwrap(), 25);
    }

    #[test]
    fn disabled_or_zero_did_has_no_frequency() {
        let mut def = PstateDef::for_frequency(2500, 1.0);
        def.enabled = false;
        assert_eq!(def.frequency_mhz(), None);
        let mut def = PstateDef::for_frequency(2500, 1.0);
        def.did = 0;
        assert_eq!(def.frequency_mhz(), None);
    }

    #[test]
    fn voltage_decoding() {
        let def = PstateDef { fid: 0, did: 8, vid: 0, idd_value: 0, idd_div: 0, enabled: true };
        assert!((def.voltage_v() - 1.55).abs() < 1e-9);
        let def = PstateDef { vid: 88, ..def };
        assert!((def.voltage_v() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idd_fields_round_trip() {
        let def = PstateDef { fid: 100, did: 8, vid: 88, idd_value: 15, idd_div: 1, enabled: true };
        let decoded = PstateDef::decode(def.encode());
        assert_eq!(decoded.idd_value, 15);
        assert_eq!(decoded.idd_div, 1);
    }

    #[test]
    fn epyc_table_matches_paper_frequencies() {
        let table = PstateTable::epyc_7502();
        assert_eq!(table.frequencies_mhz(), vec![2500, 2200, 1500]);
        assert_eq!(table.index_of_frequency(2200), Some(1));
        assert_eq!(table.index_of_frequency(1800), None);
        assert_eq!(PstateTable::num_pstates_from_cur_lim(table.cur_lim_register()), 3);
    }

    #[test]
    #[should_panic(expected = "25 MHz multiple")]
    fn for_frequency_rejects_off_grid() {
        let _ = PstateDef::for_frequency(2510, 1.0);
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn table_rejects_nine_entries() {
        let def = PstateDef::for_frequency(2500, 1.0);
        let _ = PstateTable::new(vec![def; 9]);
    }
}
