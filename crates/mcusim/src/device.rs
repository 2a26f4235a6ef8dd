use std::fmt;

/// The Cortex-M core variants of the evaluation boards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Core {
    /// Cortex-M4 (Arduino Nano 33 BLE Sense).
    CortexM4,
    /// Cortex-M7 (STM32H743).
    CortexM7,
}

impl Core {
    /// Peak int8 multiply-accumulates per cycle with CMSIS-NN kernels
    /// (SMLAD dual 16-bit MACs on M4; dual-issue on M7).
    pub fn int8_macs_per_cycle(self) -> f64 {
        match self {
            Core::CortexM4 => 0.8,
            Core::CortexM7 => 1.6,
        }
    }
}

/// An MCU deployment target.
///
/// # Example
///
/// ```
/// use quantmcu_mcusim::Device;
///
/// let nano = Device::nano33_ble_sense();
/// assert_eq!(nano.sram_bytes, 256 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Display name matching Table I.
    pub name: &'static str,
    /// The processing core.
    pub core: Core,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// On-chip SRAM in bytes (the activation budget).
    pub sram_bytes: usize,
    /// Flash in bytes (the weight budget).
    pub flash_bytes: usize,
    /// Fitted slowdown capturing unmodeled effects (flash wait states,
    /// framework overhead). Calibrated once per device against Table I's
    /// layer-based rows and then held fixed across every method, so all
    /// cross-method ratios are structural.
    pub calibration: f64,
}

impl Device {
    /// Arduino Nano 33 BLE Sense: Cortex-M4 @ 64 MHz, 256 KB SRAM, 1 MB
    /// flash.
    pub fn nano33_ble_sense() -> Self {
        Device {
            name: "Arduino Nano 33 BLE Sense",
            core: Core::CortexM4,
            clock_hz: 64e6,
            sram_bytes: 256 * 1024,
            flash_bytes: 1024 * 1024,
            calibration: 1.3,
        }
    }

    /// STM32H743: Cortex-M7 @ 480 MHz, 512 KB SRAM, 2 MB flash.
    ///
    /// The large calibration constant reflects what the paper's numbers
    /// imply: despite the 7.5× faster clock its measured latencies exceed
    /// the Nano's (1684 ms vs 617 ms for 2.6× the BitOPs), i.e. the board
    /// runs far below core throughput — consistent with flash-resident
    /// weights and slow AXI SRAM on the H743.
    pub fn stm32h743() -> Self {
        Device {
            name: "STM32H743",
            core: Core::CortexM7,
            clock_hz: 480e6,
            sram_bytes: 512 * 1024,
            flash_bytes: 2 * 1024 * 1024,
            calibration: 19.0,
        }
    }

    /// Both Table I platforms.
    pub fn table1_platforms() -> [Device; 2] {
        [Device::nano33_ble_sense(), Device::stm32h743()]
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}KB SRAM, {}MB Flash)",
            self.name,
            self.sram_bytes / 1024,
            self.flash_bytes / (1024 * 1024)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        let nano = Device::nano33_ble_sense();
        assert_eq!(nano.sram_bytes, 256 * 1024);
        assert_eq!(nano.flash_bytes, 1024 * 1024);
        assert_eq!(nano.core, Core::CortexM4);
        let h7 = Device::stm32h743();
        assert_eq!(h7.sram_bytes, 512 * 1024);
        assert_eq!(h7.flash_bytes, 2 * 1024 * 1024);
        assert_eq!(h7.core, Core::CortexM7);
    }

    #[test]
    fn m7_is_faster_per_cycle() {
        assert!(Core::CortexM7.int8_macs_per_cycle() > Core::CortexM4.int8_macs_per_cycle());
    }

    #[test]
    fn display_includes_memory() {
        assert!(Device::nano33_ble_sense().to_string().contains("256KB SRAM"));
    }
}
