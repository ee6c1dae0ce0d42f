//! Regenerates the paper's evaluation from one job grid: **Table 1**
//! (normalized runtime of recompiled binaries per benchmark × compiler
//! configuration × {no-symbolize, symbolize}, plus the SecondWrite
//! baseline on GCC 4.4 -fno-pic), **Figure 6** (runtimes normalized to
//! native GCC 12.2 -O3), **Figure 7** (stack-recovery accuracy on GCC
//! 4.4 -O3) and the **ablation** (recovery vs. unlocked optimization on
//! GCC 12.2 -O0). Each recompile runs once however many tables read it.
//!
//! ```sh
//! cargo run --release -p wyt-bench --bin paper            # all four
//! cargo run --release -p wyt-bench --bin paper -- figure7 # one table
//! ```
//!
//! Each table is printed and written to `<name>.txt` (the ablation to
//! `ablation_gcc12_o0.txt`) in `$WYT_BENCH_OUT` or `results/`. The full
//! run writes `BENCH_paper.json`, whose `rows` holds every table's rows
//! by name; a one-table run writes `BENCH_<name>.json` with that table's
//! rows and runs only the cells it reads.

use std::fmt::{self, Write};
use std::process::ExitCode;
use wyt_bench::grid::{jobs, Grid, Pipeline, Table};
use wyt_bench::{bench_json_body, bench_out_dir, write_bench_json};
use wyt_bench::{fmt_geomean, fmt_ratio, geomean, ratio_json};
use wyt_minicc::Profile;
use wyt_obs::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tables = match args.as_slice() {
        [] => Some(Table::ALL.to_vec()),
        [name] => Table::parse(name).map(|t| vec![t]),
        _ => None,
    };
    let Some(tables) = tables else {
        eprintln!("usage: paper [table1|figure6|figure7|ablation]");
        return ExitCode::FAILURE;
    };
    wyt_obs::set_enabled(true);
    let _trace = wyt_obs::trace::flush_guard_from_env();
    let grid = Grid::run(&jobs(&tables));

    let dir = bench_out_dir();
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let mut rows = Vec::new();
    for &table in &tables {
        let mut text = String::new();
        let json = render(table, &grid, &mut text).expect("writing to a String cannot fail");
        println!("{text}");
        let path = dir.join(table.txt_file());
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        rows.push((table.name(), json));
    }
    let (name, rows) = match <[_; 1]>::try_from(rows) {
        Ok([(name, json)]) => (name, json),
        Err(rows) => ("paper", Json::obj(rows)),
    };
    let path = write_bench_json(&dir, name, &bench_json_body(name, rows, &grid.par, Vec::new()));
    println!("wrote {} and the tables beside it", path.display());
    ExitCode::SUCCESS
}

/// Render `table` from `grid` into `o`; returns the table's JSON rows.
fn render(table: Table, grid: &Grid, o: &mut String) -> Result<Json, fmt::Error> {
    let suite = wyt_spec::suite();
    let names: Vec<&str> = suite.iter().map(|b| b.name).collect();
    match table {
        Table::Table1 => table1(grid, &names, o),
        Table::Figure6 => figure6(grid, &names, o),
        Table::Figure7 => figure7(grid, &names, o),
        Table::Ablation => ablation(grid, &names, o),
    }
}

fn table1(g: &Grid, names: &[&str], o: &mut String) -> Result<Json, fmt::Error> {
    let configs = Profile::table1();
    let sw = Profile::gcc44_o3_nopic();
    // A "no" and a "yes" (symbolize) row per benchmark and for the
    // geomeans; the SecondWrite cell goes on the "yes" row.
    let rows = |o: &mut String, name: &str, cell: &dyn Fn(&Profile, Pipeline) -> String| {
        for (sym, p) in [("no", Pipeline::NoSym), ("yes", Pipeline::Wyt)] {
            let c: Vec<String> = configs.iter().map(|c| cell(c, p)).collect();
            let (name, sw_cell) = match p {
                Pipeline::NoSym => (name, String::new()),
                _ => ("", cell(&sw, Pipeline::SecondWrite)),
            };
            writeln!(
                o,
                "{:<12} {:>12} | {:>9} {:>9} {:>9} {:>9} | {:>6}",
                name, sym, c[0], c[1], c[2], c[3], sw_cell
            )?;
        }
        Ok::<_, fmt::Error>(())
    };
    writeln!(o, "Table 1: normalized runtime of recompiled binaries (lower is better)")?;
    writeln!(o, "(SW = SecondWrite-like baseline on GCC 4.4 -O3 -fno-pic)\n")?;
    writeln!(
        o,
        "{:<12} {:>12} | {:>9} {:>9} {:>9} {:>9} | {:>6}",
        "benchmark", "symbolize", "GCC12-O3", "GCC12-O0", "Clang16", "GCC4.4", "SW"
    )?;
    writeln!(o, "{}", "-".repeat(84))?;

    let mut rows_json = Vec::new();
    for (bi, &name) in names.iter().enumerate() {
        rows(o, name, &|c, p| fmt_ratio(g.ratio(bi, c, p, c)))?;
        let configs_json = configs.iter().map(|c| {
            Json::obj(vec![
                ("config", Json::from(c.name)),
                ("nosym", ratio_json(g.ratio(bi, c, Pipeline::NoSym, c))),
                ("wyt", ratio_json(g.ratio(bi, c, Pipeline::Wyt, c))),
            ])
        });
        rows_json.push(Json::obj(vec![
            ("benchmark", Json::from(name)),
            ("configs", Json::Arr(configs_json.collect())),
            ("secondwrite", ratio_json(g.ratio(bi, &sw, Pipeline::SecondWrite, &sw))),
        ]));
    }
    writeln!(o, "{}", "-".repeat(84))?;
    rows(o, "geomean", &|c, p| fmt_geomean((0..names.len()).map(|bi| g.ratio(bi, c, p, c))))?;
    writeln!(o, "\npaper's geomeans:      no: 1.24      0.76      1.31      1.05 |  (SW 1.14)")?;
    writeln!(o, "                      yes: 1.10      0.48      1.06      0.82 |")?;
    Ok(Json::Arr(rows_json))
}

fn figure6(g: &Grid, names: &[&str], o: &mut String) -> Result<Json, fmt::Error> {
    let base = Profile::gcc12_o3();
    let sw = Profile::gcc44_o3_nopic();
    // A native (*) and a recompiled series per profile: WYTIWYG (†), or
    // SecondWrite (‡) for the non-PIC legacy build.
    let series: Vec<(String, Profile, Pipeline)> = wyt_bench::grid::profiles()
        .into_iter()
        .flat_map(|p| {
            let (label, mark, recompiled) = if p == sw {
                ("GCC 4.4 -fno-pic", "‡", Pipeline::SecondWrite)
            } else {
                (p.name, "†", Pipeline::Wyt)
            };
            [
                (format!("{label} *"), p.clone(), Pipeline::Native),
                (format!("{label} {mark}"), p, recompiled),
            ]
        })
        .collect();

    writeln!(o, "Figure 6: runtime normalized to native GCC 12.2 -O3 (lower is better)")?;
    writeln!(o, "(* native input binary, † WYTIWYG recompiled, ‡ SecondWrite recompiled)\n")?;
    write!(o, "{:<20}", "series")?;
    for name in names {
        write!(o, " {:>7}", &name[..name.len().min(7)])?;
    }
    writeln!(o, " {:>7}", "geomean")?;

    let mut rows_json = Vec::new();
    for (label, profile, p) in &series {
        let row: Vec<Option<f64>> =
            (0..names.len()).map(|bi| g.ratio(bi, profile, *p, &base)).collect();
        write!(o, "{label:<20}")?;
        for &v in &row {
            write!(o, " {:>7}", fmt_ratio(v))?;
        }
        writeln!(o, " {:>7}", fmt_geomean(row.iter().copied()))?;
        rows_json.push(Json::obj(vec![
            ("series", Json::from(label.as_str())),
            ("values", Json::Arr(row.iter().map(|&v| ratio_json(v)).collect())),
            ("geomean", ratio_json(geomean(row.iter().copied()))),
        ]));
    }
    writeln!(o, "\nShapes to compare with the paper: every † series approaches the")?;
    writeln!(o, "GCC 12.2 baseline; -O0 native is far above; GCC 4.4 † dips below")?;
    writeln!(o, "GCC 4.4 *; ‡ exists only for the non-PIC legacy build and trails †.")?;
    Ok(Json::Arr(rows_json))
}

fn figure7(g: &Grid, names: &[&str], o: &mut String) -> Result<Json, fmt::Error> {
    let profile = Profile::gcc44_o3();
    writeln!(o, "Figure 7: stack-recovery accuracy per benchmark ({})\n", profile.name)?;
    writeln!(
        o,
        "{:<12} {:>8} {:>9} {:>10} {:>11} {:>8}",
        "benchmark", "objects", "matched", "oversized", "undersized", "missed"
    )?;
    writeln!(o, "{}", "-".repeat(64))?;

    let (mut total, mut matched, mut recovered, mut recovered_matched) = (0, 0, 0, 0);
    let mut rows_json = Vec::new();
    for (bi, &name) in names.iter().enumerate() {
        let cells = &g.cells[&(bi, profile.name)];
        let acc = cells.accuracy.as_ref().unwrap_or_else(|| {
            panic!("{name}: no accuracy without a recompile: {:?}", cells.cycles[&Pipeline::Wyt])
        });
        let (m, ov, un, mi) = acc.ratios;
        writeln!(
            o,
            "{:<12} {:>8} {:>8.1}% {:>9.1}% {:>10.1}% {:>7.1}%",
            name,
            acc.objects,
            m * 100.0,
            ov * 100.0,
            un * 100.0,
            mi * 100.0
        )?;
        total += acc.objects;
        matched += acc.matched;
        recovered += acc.recovered;
        recovered_matched += acc.recovered_matched;
        rows_json.push(Json::obj(vec![
            ("benchmark", Json::from(name)),
            ("objects", Json::from(acc.objects as u64)),
            ("matched", Json::from(m)),
            ("oversized", Json::from(ov)),
            ("undersized", Json::from(un)),
            ("missed", Json::from(mi)),
        ]));
    }

    writeln!(o, "{}", "-".repeat(64))?;
    let precision = if recovered == 0 { 1.0 } else { recovered_matched as f64 / recovered as f64 };
    let recall = if total == 0 { 1.0 } else { matched as f64 / total as f64 };
    writeln!(
        o,
        "overall: {} ground-truth objects, precision {:.1}%, recall {:.1}%",
        total,
        precision * 100.0,
        recall * 100.0
    )?;
    writeln!(o, "paper:   precision 94.4%, recall 87.6%")?;
    Ok(Json::obj(vec![
        ("benchmarks", Json::Arr(rows_json)),
        ("precision", Json::from(precision)),
        ("recall", Json::from(recall)),
    ]))
}

/// Ablation columns: what recovery (symbolization) buys apart from what
/// the optimizations it unlocks buy, all over the native input binary.
const ABLATION: [(&str, Pipeline); 4] = [
    ("nosym+clean", Pipeline::NoSymClean),
    ("nosym+full", Pipeline::NoSym),
    ("wyt+clean", Pipeline::WytClean),
    ("wyt+full", Pipeline::Wyt),
];

fn ablation(g: &Grid, names: &[&str], o: &mut String) -> Result<Json, fmt::Error> {
    let profile = Profile::gcc12_o0();
    let ratio = |bi, p| g.ratio(bi, &profile, p, &profile);
    let row = |o: &mut String, name: &str, [a, b, c, d]: [String; 4]| {
        writeln!(o, "{name:<12} {a:>12} {b:>12} {c:>12} {d:>12}")
    };
    writeln!(o, "Ablation: contribution of recovery vs. unlocked optimization")?;
    writeln!(o, "(inputs: {}; ratios to native; lower is better)\n", profile.name)?;
    row(o, "benchmark", ABLATION.map(|(k, _)| k.to_string()))?;
    writeln!(o, "{}", "-".repeat(66))?;

    let mut rows_json = Vec::new();
    for (bi, &name) in names.iter().enumerate() {
        let ratios = ABLATION.map(|(_, p)| ratio(bi, p));
        row(o, name, ratios.map(fmt_ratio))?;
        let mut fields = vec![("benchmark", Json::from(name))];
        fields.extend(ABLATION.iter().zip(ratios).map(|(&(k, _), r)| (k, ratio_json(r))));
        rows_json.push(Json::obj(fields));
    }
    writeln!(o, "{}", "-".repeat(66))?;
    row(o, "geomean", ABLATION.map(|(_, p)| fmt_geomean((0..names.len()).map(|bi| ratio(bi, p)))))?;
    writeln!(o, "\nReading: wyt+clean vs nosym+clean isolates symbolization's direct")?;
    writeln!(o, "effect (two-stack overhead removed); wyt+full vs wyt+clean is the")?;
    writeln!(o, "alias-analysis dividend the paper's §2 argues symbolization unlocks.")?;
    Ok(Json::obj(vec![("profile", Json::from(profile.name)), ("rows", Json::Arr(rows_json))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_bench::grid::Cells;
    use wyt_bench::ParMeta;

    #[test]
    fn all_failed_column_renders_a_dash_not_nan() {
        // Every recompile failed; only the native runs have cycles.
        let cells = jobs(&[Table::Ablation])
            .into_iter()
            .map(|j| {
                let failed = |p| if p == Pipeline::Native { Ok(100) } else { Err("x".into()) };
                let cycles = j.pipelines.iter().map(|&p| (p, failed(p))).collect();
                ((j.bench, j.profile.name), Cells { cycles, accuracy: None })
            })
            .collect();
        let par = ParMeta { threads: 1, wall_ns: 1, serial_wall_ns: None };
        let grid = Grid { cells, par };
        let mut text = String::new();
        render(Table::Ablation, &grid, &mut text).unwrap();
        assert!(!text.contains("NaN"), "{text}");
        let geo = text.lines().find(|l| l.starts_with("geomean")).expect("geomean row");
        assert_eq!(geo.split_whitespace().collect::<Vec<_>>(), ["geomean", "—", "—", "—", "—"]);
    }
}
