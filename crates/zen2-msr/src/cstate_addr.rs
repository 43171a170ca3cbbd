//! The C-state base address register.
//!
//! Zen 2 enters idle states either through `monitor`/`mwait` or through
//! reads of I/O addresses in a window defined by `CStateBaseAddr`
//! (Section III-B). On the paper's system the OS C2 state "uses IO address
//! 0x814 in the C-state address range": the base is 0x813 and reading
//! `base + n` requests hardware C-state level `n + 1`.

/// Decoded `CStateBaseAddr` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CstateBaseAddress {
    /// The base I/O port of the C-state trigger window.
    pub base_port: u16,
}

impl Default for CstateBaseAddress {
    fn default() -> Self {
        Self::rome_default()
    }
}

impl CstateBaseAddress {
    /// The base used on the paper's test system (I/O port 0x813, so that
    /// OS C2 maps to port 0x814).
    pub fn rome_default() -> Self {
        Self { base_port: 0x813 }
    }

    /// Encodes into the register format (bits 15:0).
    pub fn encode(&self) -> u64 {
        self.base_port as u64
    }

    /// Decodes from the register format.
    pub fn decode(raw: u64) -> Self {
        Self { base_port: (raw & 0xFFFF) as u16 }
    }

    /// The I/O port whose read requests hardware C-state entry level
    /// `level` (1-based: level 1 = port `base`, level 2 = port `base+1`).
    ///
    /// # Panics
    /// Panics for level 0 (C0 is not entered through the I/O window) or
    /// levels beyond the 8-port window.
    pub fn port_for_level(&self, level: u8) -> u16 {
        assert!((1..=8).contains(&level), "C-state I/O window covers levels 1..=8, got {level}");
        self.base_port + (level as u16 - 1)
    }

    /// The hardware C-state level requested by a read of `port`, if the
    /// port falls inside the window.
    pub fn level_for_port(&self, port: u16) -> Option<u8> {
        let offset = port.checked_sub(self.base_port)?;
        if offset < 8 {
            Some(offset as u8 + 1)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_c2_maps_to_port_0x814() {
        // The paper: C2 "uses IO address 0x814".
        let addr = CstateBaseAddress::rome_default();
        assert_eq!(addr.port_for_level(2), 0x814);
        assert_eq!(addr.level_for_port(0x814), Some(2));
    }

    #[test]
    fn encode_decode_round_trip() {
        let addr = CstateBaseAddress { base_port: 0x413 };
        assert_eq!(CstateBaseAddress::decode(addr.encode()), addr);
    }

    #[test]
    fn ports_outside_window_do_not_decode() {
        let addr = CstateBaseAddress::rome_default();
        assert_eq!(addr.level_for_port(0x812), None);
        assert_eq!(addr.level_for_port(0x813 + 8), None);
        assert_eq!(addr.level_for_port(0x813), Some(1));
    }

    #[test]
    #[should_panic(expected = "levels 1..=8")]
    fn level_zero_is_not_a_window_entry() {
        let _ = CstateBaseAddress::rome_default().port_for_level(0);
    }
}
