//! Exactness pins for the machine emulator. Cycles are the reproduction's
//! runtime (Table 1, Figures 6–7), so any change to the emulator's step
//! loop must leave every observable result identical: exit code, retired
//! instructions, cycles, loads, stores and output on real programs under
//! every compiler profile, and the exact point where a fuel or cycle
//! budget stops a run.
//!
//! On a mismatch the assertion prints the whole table as computed, in the
//! form of the constants below.

use wyt_emu::{run_image, Machine};
use wyt_isa::image::Image;
use wyt_minicc::{compile, Profile};

/// The cold-suite programs of the benchmark, run on their first train input.
const SUITE: [&str; 5] = ["mcf", "gobmk", "bzip2", "xalancbmk", "gcc"];

/// `(program, profile, exit_code, inst_count, cycles, loads, stores,
/// FNV-1a of the output)` for each [`SUITE`] program under each
/// [`Profile::table1`] profile.
type Row = (&'static str, &'static str, i32, u64, u64, u64, u64, u64);

const GOLDEN: &[Row] = &[
    ("mcf", "GCC 12.2 -O3", 113, 1145778, 2440795, 250656, 148195, 10377348600500873910),
    ("gobmk", "GCC 12.2 -O3", 98, 300392, 514129, 50641, 29175, 1647617833860383556),
    ("bzip2", "GCC 12.2 -O3", 37, 344704, 518732, 54672, 31807, 3626966388782963462),
    ("xalancbmk", "GCC 12.2 -O3", 32, 178395, 377823, 47238, 40807, 5288046745215557972),
    ("gcc", "GCC 12.2 -O3", 70, 38629, 74555, 10491, 6238, 10880099478083132938),
    ("mcf", "GCC 12.2 -O0", 113, 1782338, 4109343, 572298, 332083, 10377348600500873910),
    ("gobmk", "GCC 12.2 -O0", 98, 427282, 898341, 141969, 76906, 1647617833860383556),
    ("bzip2", "GCC 12.2 -O0", 37, 689044, 1428752, 244869, 139530, 3626966388782963462),
    ("xalancbmk", "GCC 12.2 -O0", 32, 203796, 467590, 76244, 44183, 5288046745215557972),
    ("gcc", "GCC 12.2 -O0", 70, 48911, 107387, 16597, 10493, 10880099478083132938),
    ("mcf", "Clang 16 -O3", 113, 1145781, 2440802, 250657, 148196, 10377348600500873910),
    ("gobmk", "Clang 16 -O3", 98, 300413, 514178, 50648, 29182, 1647617833860383556),
    ("bzip2", "Clang 16 -O3", 37, 344728, 518804, 54684, 31819, 3626966388782963462),
    ("xalancbmk", "Clang 16 -O3", 32, 192816, 436440, 58287, 51856, 5288046745215557972),
    ("gcc", "Clang 16 -O3", 70, 42245, 84299, 12023, 7770, 10880099478083132938),
    ("mcf", "GCC 4.4 -O3", 113, 1708343, 3696684, 437478, 308035, 10377348600500873910),
    ("gobmk", "GCC 4.4 -O3", 98, 373569, 730200, 94384, 59825, 1647617833860383556),
    ("bzip2", "GCC 4.4 -O3", 37, 485889, 860595, 117768, 71330, 3626966388782963462),
    ("xalancbmk", "GCC 4.4 -O3", 32, 185785, 411849, 58520, 43097, 5288046745215557972),
    ("gcc", "GCC 4.4 -O3", 70, 48161, 99583, 14849, 9824, 10880099478083132938),
];

/// A small program with a loop, a direct call, and an external call.
const SWEEP_SRC: &str = r#"
int sq(int x) { return x * x; }
int main() {
    int i;
    int acc = 0;
    for (i = 0; i < 6; i++) {
        acc += sq(i);
        if (acc & 1) printf("%d\n", acc);
    }
    return acc & 0x7f;
}
"#;

/// FNV-1a of `(inst_count, cycles, trap)` over every fuel value from 0 to
/// two past the program's retired count, and its retired count.
const FUEL_SWEEP: (u64, u64) = (6693247702565323624, 113);

/// FNV-1a of `(inst_count, cycles, trap)` over every cycle budget from 0
/// to two past the program's total cycles, and its total cycles.
const CYCLE_SWEEP: (u64, u64) = (3634845474647800072, 186);

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn suite_runs_match_pinned_counts_under_every_profile() {
    let mut rows = Vec::new();
    for profile in Profile::table1() {
        for name in SUITE {
            let bench = wyt_spec::by_name(name).expect("suite program");
            let img = compile(bench.source, &profile).expect("suite program compiles");
            let r = run_image(&img, bench.train_inputs().remove(0));
            assert!(r.ok(), "{name} under {}: {:?}", profile.name, r.trap);
            rows.push((
                name,
                profile.name,
                r.exit_code,
                r.inst_count,
                r.cycles,
                r.mem.loads,
                r.mem.stores,
                fnv1a(FNV_OFFSET, &r.output),
            ));
        }
    }
    let table: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
    assert!(rows == GOLDEN, "emulator counts drifted; computed:\n{table}");
}

/// Hash every run of `img` under `limit(machine, n)` for `n` in `0..=end`.
fn sweep(img: &Image, end: u64, limit: impl Fn(&mut Machine, u64)) -> u64 {
    (0..=end).fold(FNV_OFFSET, |h, n| {
        let mut m = Machine::new(img, Vec::new());
        limit(&mut m, n);
        let r = m.run();
        let h = fnv1a(h, &r.inst_count.to_le_bytes());
        let h = fnv1a(h, &r.cycles.to_le_bytes());
        fnv1a(h, format!("{:?}", r.trap).as_bytes())
    })
}

#[test]
fn fuel_and_cycle_budgets_stop_at_pinned_points() {
    let img = compile(SWEEP_SRC, &Profile::gcc12_o3()).expect("compile");
    let full = run_image(&img, Vec::new());
    assert!(full.ok(), "{:?}", full.trap);
    let fuel = (sweep(&img, full.inst_count + 2, |m, n| m.set_fuel(n)), full.inst_count);
    let cycles = (sweep(&img, full.cycles + 2, |m, n| m.set_cycle_budget(n)), full.cycles);
    assert_eq!((fuel, cycles), (FUEL_SWEEP, CYCLE_SWEEP), "fuel and cycle sweeps drifted");
}
