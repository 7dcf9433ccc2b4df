//! HMC geometry, DRAM timing, and address routing.

use pei_engine::ClockDomain;
use pei_types::ids::VaultLoc;
use pei_types::{BankId, BlockAddr, CubeId, Cycle, VaultId};

/// Row-buffer management policy of the vault controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePolicy {
    /// Keep rows open after an access (FR-FCFS exploits row hits; the
    /// paper's configuration).
    Open,
    /// Auto-precharge after every access: no row hits, but no conflict
    /// precharge either (an ablation point).
    Closed,
}

/// Periodic DRAM refresh parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshTiming {
    /// Refresh interval (tREFI): one all-bank refresh per vault per
    /// interval, in host cycles.
    pub t_refi: Cycle,
    /// Refresh duration (tRFC), in host cycles.
    pub t_rfc: Cycle,
}

impl RefreshTiming {
    /// Typical DDR-class values: tREFI = 7.8 µs, tRFC = 260 ns.
    pub fn typical(mem_clk: ClockDomain) -> Self {
        RefreshTiming {
            t_refi: mem_clk.ns_to_cycles(7800.0),
            t_rfc: mem_clk.ns_to_cycles(260.0),
        }
    }
}

/// Open-page DRAM timing in host cycles (derived from the paper's
/// nanosecond parameters through the 2 GHz memory clock domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Row activate to column command (tRCD).
    pub t_rcd: Cycle,
    /// Column command to data (tCL / tCWL).
    pub t_cl: Cycle,
    /// Precharge (tRP).
    pub t_rp: Cycle,
    /// Burst transfer of one 64-byte block out of the sense amps.
    pub t_bl: Cycle,
}

impl DramTiming {
    /// The paper's timing: tCL = tRCD = tRP = 13.75 ns, at `mem_clk`.
    pub fn paper(mem_clk: ClockDomain) -> Self {
        DramTiming {
            t_rcd: mem_clk.ns_to_cycles(13.75),
            t_cl: mem_clk.ns_to_cycles(13.75),
            t_rp: mem_clk.ns_to_cycles(13.75),
            t_bl: mem_clk.cycles(4),
        }
    }
}

/// Full configuration of the HMC-based main memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmcConfig {
    /// Number of cubes on the daisy chain.
    pub cubes: usize,
    /// Vaults per cube.
    pub vaults_per_cube: usize,
    /// DRAM banks per vault.
    pub banks_per_vault: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: usize,
    /// DRAM timing parameters.
    pub timing: DramTiming,
    /// Vertical (TSV) link bandwidth per vault, bytes per host cycle
    /// (64 TSVs × 2 Gb/s = 16 GB/s = 4 B per 4 GHz host cycle).
    pub tsv_bytes_per_cycle: f64,
    /// Off-chip link bandwidth per direction, bytes per host cycle
    /// (80 GB/s full-duplex = 20 B per 4 GHz host cycle each way).
    pub link_bytes_per_cycle: f64,
    /// Off-chip link propagation latency (SerDes + board), host cycles.
    pub link_latency: Cycle,
    /// Extra latency per daisy-chain hop, host cycles.
    pub hop_latency: Cycle,
    /// Memory-side clock domain (2 GHz under the 4 GHz host clock).
    pub mem_clk: ClockDomain,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
    /// Periodic refresh; `None` disables it (ablations).
    pub refresh: Option<RefreshTiming>,
}

impl HmcConfig {
    /// The paper's Table 2 memory system: 8 cubes × 16 vaults × 16 banks.
    pub fn paper() -> Self {
        let mem_clk = ClockDomain::new(2, 4.0);
        HmcConfig {
            cubes: 8,
            vaults_per_cube: 16,
            banks_per_vault: 16,
            row_bytes: 2048,
            timing: DramTiming::paper(mem_clk),
            tsv_bytes_per_cycle: 4.0,
            link_bytes_per_cycle: 20.0,
            link_latency: 40, // ~10 ns SerDes + board round
            hop_latency: 16,  // ~4 ns per chain hop
            mem_clk,
            page_policy: PagePolicy::Open,
            refresh: Some(RefreshTiming::typical(mem_clk)),
        }
    }

    /// A scaled-down memory for fast experiments: 1 cube × 16 vaults,
    /// with the off-chip link scaled proportionally to the 4× smaller
    /// core count (20 GB/s per direction = 5 B per host cycle). Per-vault
    /// behaviour (banks, timing, TSVs) is unchanged.
    pub fn scaled() -> Self {
        HmcConfig {
            cubes: 1,
            link_bytes_per_cycle: 5.0,
            ..Self::paper()
        }
    }

    /// Total number of vaults in the system.
    pub fn total_vaults(&self) -> usize {
        self.cubes * self.vaults_per_cube
    }

    /// Routes a block address to its cube/vault/bank and row id.
    ///
    /// Blocks are interleaved across cubes, then vaults, then banks on
    /// consecutive block-address bits, maximizing memory-level parallelism
    /// for streaming accesses — the standard HMC mapping.
    pub fn route(&self, block: BlockAddr) -> (VaultLoc, BankId, u64) {
        let mut v = block.0;
        let cube = v & (self.cubes as u64 - 1);
        v >>= self.cubes.trailing_zeros();
        let vault = v & (self.vaults_per_cube as u64 - 1);
        v >>= self.vaults_per_cube.trailing_zeros();
        let bank = v & (self.banks_per_vault as u64 - 1);
        v >>= self.banks_per_vault.trailing_zeros();
        let row = v / (self.row_bytes / pei_types::BLOCK_BYTES) as u64;
        (
            VaultLoc {
                cube: CubeId(cube as u16),
                vault: VaultId(vault as u16),
            },
            BankId(bank as u16),
            row,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let c = HmcConfig::paper();
        assert_eq!(c.total_vaults(), 128);
        // 256 DRAM banks per HMC (Table 2): 16 vaults × 16 banks.
        assert_eq!(c.vaults_per_cube * c.banks_per_vault, 256);
        // Timing: 13.75 ns at 4 GHz host = 55 cycles, aligned up to 56.
        assert_eq!(c.timing.t_cl, 56);
    }

    #[test]
    fn route_interleaves_consecutive_blocks_across_cubes() {
        let c = HmcConfig::paper();
        let (l0, _, _) = c.route(BlockAddr(0));
        let (l1, _, _) = c.route(BlockAddr(1));
        assert_ne!(l0.cube, l1.cube);
    }

    #[test]
    fn route_is_total_and_in_range() {
        let c = HmcConfig::paper();
        for raw in [0u64, 1, 255, 0xffff, 0xdead_beef, u64::MAX >> 7] {
            let (loc, bank, _row) = c.route(BlockAddr(raw));
            assert!(loc.cube.index() < c.cubes);
            assert!(loc.vault.index() < c.vaults_per_cube);
            assert!(bank.index() < c.banks_per_vault);
        }
    }

    #[test]
    fn same_row_same_bank_for_adjacent_high_blocks() {
        let c = HmcConfig::paper();
        // Two blocks differing only above the bank bits but within a row
        // stride land in the same bank with consecutive rows eventually.
        let stride = (c.cubes * c.vaults_per_cube * c.banks_per_vault) as u64;
        let (la, ba, ra) = c.route(BlockAddr(7));
        let (lb, bb, rb) = c.route(BlockAddr(7 + stride));
        assert_eq!((la, ba), (lb, bb));
        assert!(rb >= ra);
    }
}
