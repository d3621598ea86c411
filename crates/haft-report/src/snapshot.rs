//! Machine-readable section snapshots (`report/<section>.json`) and the
//! `--check` diff against their pinned tolerance bands.
//!
//! A snapshot is the numeric content of one section — its tables and
//! series at full precision, each carrying the [`Tolerance`] it was
//! generated with. `--check` regenerates the section and compares every
//! value against the *committed* snapshot using the *committed* band, so
//! a perf- or semantics-changing PR that moves a number out of band must
//! regenerate the snapshot (a reviewed, versioned diff) instead of
//! silently drifting the documentation — the explicit mechanism replacing
//! CHANGES.md's hand-copied numbers and their "session variance" caveat.

use crate::render::{Series, Table, TableRow, Tolerance};
use haft_trace::json::Json;

/// Which sweep sizes produced a snapshot. Fast and full runs measure
/// different grids, so their numbers are not comparable; the mode is
/// recorded and checked before any value diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// CI-sized sweeps (`--fast`).
    Fast,
    /// The paper-sized grids.
    Full,
}

impl Mode {
    /// Serialized name.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Fast => "fast",
            Mode::Full => "full",
        }
    }

    /// Inverse of [`Mode::label`].
    pub fn parse(s: &str) -> Result<Mode, String> {
        match s {
            "fast" => Ok(Mode::Fast),
            "full" => Ok(Mode::Full),
            other => Err(format!("unknown mode `{other}`")),
        }
    }
}

/// One section's numbers, ready to serialize or diff.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    pub section: String,
    pub mode: Mode,
    pub tables: Vec<Table>,
    pub series: Vec<Series>,
}

impl Snapshot {
    /// Serializes to the `report/<section>.json` document.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    fn to_json(&self) -> Json {
        let tables = self
            .tables
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("id".into(), Json::Str(t.id.clone())),
                    ("title".into(), Json::Str(t.title.clone())),
                    ("tolerance".into(), tolerance_to_json(t.tolerance)),
                    (
                        "columns".into(),
                        Json::Arr(t.columns.iter().map(|c| Json::Str(c.clone())).collect()),
                    ),
                    (
                        "rows".into(),
                        Json::Arr(
                            t.rows
                                .iter()
                                .map(|r| {
                                    let mut cells = vec![Json::Str(r.label.clone())];
                                    cells.extend(r.values.iter().map(|&v| Json::Num(v)));
                                    Json::Arr(cells)
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let series = self
            .series
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Str(s.id.clone())),
                    ("title".into(), Json::Str(s.title.clone())),
                    ("tolerance".into(), tolerance_to_json(s.tolerance)),
                    (
                        "points".into(),
                        Json::Arr(
                            s.points
                                .iter()
                                .map(|(l, v)| Json::Arr(vec![Json::Str(l.clone()), Json::Num(*v)]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("section".into(), Json::Str(self.section.clone())),
            ("mode".into(), Json::Str(self.mode.label().into())),
            ("tables".into(), Json::Arr(tables)),
            ("series".into(), Json::Arr(series)),
        ])
    }

    /// Parses a `report/<section>.json` document.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text)?;
        let section = str_field(&doc, "section")?.to_string();
        let mode = Mode::parse(str_field(&doc, "mode")?)?;
        let mut tables = Vec::new();
        for t in arr_field(&doc, "tables")? {
            let id = str_field(t, "id")?.to_string();
            let columns: Vec<String> = arr_field(t, "columns")?
                .iter()
                .map(|c| c.as_str().map(str::to_string).ok_or("non-string column"))
                .collect::<Result<_, _>>()?;
            let mut rows = Vec::new();
            for row in arr_field(t, "rows")? {
                let cells = row.as_arr().ok_or("row is not an array")?;
                let label = cells
                    .first()
                    .and_then(Json::as_str)
                    .ok_or("row lacks a leading label")?
                    .to_string();
                let values: Vec<f64> = cells[1..]
                    .iter()
                    .map(|c| c.as_f64().ok_or("non-numeric cell"))
                    .collect::<Result<_, _>>()?;
                if values.len() + 1 != columns.len() {
                    return Err(format!("{id}/{label}: cell count mismatch"));
                }
                rows.push(TableRow { label, values });
            }
            tables.push(Table {
                id,
                title: str_field(t, "title")?.to_string(),
                columns,
                rows,
                precision: 2,
                tolerance: tolerance_from_json(t.get("tolerance").ok_or("missing tolerance")?)?,
            });
        }
        let mut series = Vec::new();
        for s in arr_field(&doc, "series")? {
            let points: Vec<(String, f64)> = arr_field(s, "points")?
                .iter()
                .map(|p| {
                    let pair = p.as_arr().filter(|a| a.len() == 2).ok_or("bad point")?;
                    Ok((
                        pair[0].as_str().ok_or("non-string point label")?.to_string(),
                        pair[1].as_f64().ok_or("non-numeric point value")?,
                    ))
                })
                .collect::<Result<_, String>>()?;
            series.push(Series {
                id: str_field(s, "id")?.to_string(),
                title: str_field(s, "title")?.to_string(),
                points,
                tolerance: tolerance_from_json(s.get("tolerance").ok_or("missing tolerance")?)?,
            });
        }
        Ok(Snapshot { section, mode, tables, series })
    }
}

fn tolerance_to_json(t: Tolerance) -> Json {
    let (kind, v) = match t {
        Tolerance::Rel(f) => ("rel", f),
        Tolerance::Abs(a) => ("abs", a),
        Tolerance::Info => return Json::Obj(vec![("info".into(), Json::Bool(true))]),
    };
    Json::Obj(vec![(kind.into(), Json::Num(v))])
}

fn tolerance_from_json(j: &Json) -> Result<Tolerance, String> {
    if let Some(f) = j.get("rel").and_then(Json::as_f64) {
        Ok(Tolerance::Rel(f))
    } else if let Some(a) = j.get("abs").and_then(Json::as_f64) {
        Ok(Tolerance::Abs(a))
    } else if j.get("info").is_some() {
        Ok(Tolerance::Info)
    } else {
        Err("tolerance must be {\"rel\": f}, {\"abs\": f}, or {\"info\": true}".into())
    }
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key).and_then(Json::as_str).ok_or(format!("missing string field `{key}`"))
}

fn arr_field<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    j.get(key).and_then(Json::as_arr).ok_or(format!("missing array field `{key}`"))
}

/// Compares a freshly generated snapshot against the pinned one and
/// returns one human-readable violation per out-of-band value or
/// structural mismatch (renamed/added/removed tables, rows, columns, or
/// points). Empty means the check passes.
///
/// The *pinned* side's tolerance is authoritative: bands are part of the
/// committed snapshot, not of the code doing the checking.
pub fn diff(pinned: &Snapshot, fresh: &Snapshot) -> Vec<String> {
    let mut violations = Vec::new();
    if pinned.section != fresh.section {
        violations.push(format!(
            "section name changed: pinned `{}` vs fresh `{}`",
            pinned.section, fresh.section
        ));
        return violations;
    }
    let sec = &pinned.section;
    if pinned.mode != fresh.mode {
        violations.push(format!(
            "{sec}: snapshot was pinned in {} mode but this run is {} mode — \
             regenerate with the matching flag",
            pinned.mode.label(),
            fresh.mode.label()
        ));
        return violations;
    }
    diff_keyed(
        &mut violations,
        sec,
        "table",
        &pinned.tables,
        &fresh.tables,
        |t| &t.id,
        |v, p, f| diff_table(v, sec, p, f),
    );
    diff_keyed(
        &mut violations,
        sec,
        "series",
        &pinned.series,
        &fresh.series,
        |s| &s.id,
        |v, p, f| diff_series(v, sec, p, f),
    );
    violations
}

/// Matches two keyed lists, reporting removed/added keys and delegating
/// matched pairs to `diff_pair`.
fn diff_keyed<T>(
    violations: &mut Vec<String>,
    sec: &str,
    kind: &str,
    pinned: &[T],
    fresh: &[T],
    key: impl Fn(&T) -> &str,
    diff_pair: impl Fn(&mut Vec<String>, &T, &T),
) {
    for p in pinned {
        match fresh.iter().find(|f| key(f) == key(p)) {
            Some(f) => diff_pair(violations, p, f),
            None => violations.push(format!("{sec}: {kind} `{}` missing from this run", key(p))),
        }
    }
    for f in fresh {
        if !pinned.iter().any(|p| key(p) == key(f)) {
            violations.push(format!(
                "{sec}: new {kind} `{}` has no pinned snapshot — regenerate to pin it",
                key(f)
            ));
        }
    }
}

fn diff_table(violations: &mut Vec<String>, sec: &str, pinned: &Table, fresh: &Table) {
    let id = &pinned.id;
    if pinned.columns != fresh.columns {
        violations.push(format!(
            "{sec}/{id}: columns changed: {:?} vs {:?}",
            pinned.columns, fresh.columns
        ));
        return;
    }
    for prow in &pinned.rows {
        let Some(frow) = fresh.rows.iter().find(|r| r.label == prow.label) else {
            violations.push(format!("{sec}/{id}: row `{}` missing from this run", prow.label));
            continue;
        };
        for (col, (&pv, &fv)) in
            pinned.columns[1..].iter().zip(prow.values.iter().zip(&frow.values))
        {
            if !pinned.tolerance.allows(pv, fv) {
                violations.push(format!(
                    "{sec}/{id} [{} · {col}]: pinned {pv:.4} vs fresh {fv:.4} (band {})",
                    prow.label,
                    pinned.tolerance.describe()
                ));
            }
        }
    }
    for frow in &fresh.rows {
        if !pinned.rows.iter().any(|r| r.label == frow.label) {
            violations.push(format!("{sec}/{id}: new row `{}` is not pinned", frow.label));
        }
    }
}

fn diff_series(violations: &mut Vec<String>, sec: &str, pinned: &Series, fresh: &Series) {
    let id = &pinned.id;
    for (label, pv) in &pinned.points {
        let Some((_, fv)) = fresh.points.iter().find(|(l, _)| l == label) else {
            violations.push(format!("{sec}/{id}: point `{label}` missing from this run"));
            continue;
        };
        if !pinned.tolerance.allows(*pv, *fv) {
            violations.push(format!(
                "{sec}/{id} [{label}]: pinned {pv:.4} vs fresh {fv:.4} (band {})",
                pinned.tolerance.describe()
            ));
        }
    }
    for (label, _) in &fresh.points {
        if !pinned.points.iter().any(|(l, _)| l == label) {
            violations.push(format!("{sec}/{id}: new point `{label}` is not pinned"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut t = Table::new("overhead", "Overheads", &["workload", "HAFT", "TMR"])
            .tolerance(Tolerance::Rel(0.15));
        t.push_row("histogram", vec![1.91, 2.25]);
        t.push_row("pca", vec![2.6, 2.9]);
        let mut s = Series::new("haft-oh", "HAFT overhead").tolerance(Tolerance::Abs(0.5));
        s.push("histogram", 1.91);
        s.push("pca", 2.6);
        Snapshot { section: "overheads".into(), mode: Mode::Fast, tables: vec![t], series: vec![s] }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let snap = sample();
        let parsed = Snapshot::parse(&snap.render()).unwrap();
        assert_eq!(parsed.section, snap.section);
        assert_eq!(parsed.mode, snap.mode);
        assert_eq!(parsed.tables[0].columns, snap.tables[0].columns);
        assert_eq!(parsed.tables[0].rows, snap.tables[0].rows);
        assert_eq!(parsed.tables[0].tolerance, snap.tables[0].tolerance);
        assert_eq!(parsed.series[0].points, snap.series[0].points);
        assert_eq!(parsed.series[0].tolerance, snap.series[0].tolerance);
        assert!(diff(&snap, &parsed).is_empty(), "round-trip must diff clean");
    }

    #[test]
    fn identical_snapshots_diff_clean() {
        assert!(diff(&sample(), &sample()).is_empty());
    }

    #[test]
    fn in_band_drift_passes_and_out_of_band_fails() {
        let pinned = sample();
        let mut fresh = sample();
        fresh.tables[0].rows[0].values[0] = 1.99; // +4% on a ±15% band
        assert!(diff(&pinned, &fresh).is_empty());
        fresh.tables[0].rows[0].values[0] = 3.0; // +57%
        let v = diff(&pinned, &fresh);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("histogram · HAFT"), "{v:?}");
        assert!(v[0].contains("±15% rel"), "{v:?}");
    }

    #[test]
    fn series_points_are_checked_against_their_band() {
        let pinned = sample();
        let mut fresh = sample();
        fresh.series[0].points[1].1 = 3.0; // +0.4 on a ±0.5 abs band
        assert!(diff(&pinned, &fresh).is_empty());
        fresh.series[0].points[1].1 = 3.2;
        assert_eq!(diff(&pinned, &fresh).len(), 1);
    }

    #[test]
    fn structural_changes_are_violations() {
        let pinned = sample();

        let mut fresh = sample();
        fresh.mode = Mode::Full;
        assert!(diff(&pinned, &fresh)[0].contains("mode"));

        let mut fresh = sample();
        fresh.tables[0].rows.pop();
        assert!(diff(&pinned, &fresh).iter().any(|v| v.contains("row `pca` missing")));

        let mut fresh = sample();
        fresh.tables[0].rows[1].label = "pca-renamed".into();
        let v = diff(&pinned, &fresh);
        assert!(
            v.iter().any(|m| m.contains("missing")) && v.iter().any(|m| m.contains("not pinned"))
        );

        let mut fresh = sample();
        fresh.tables.clear();
        assert!(diff(&pinned, &fresh).iter().any(|v| v.contains("table `overhead` missing")));

        let mut fresh = sample();
        fresh.tables[0].columns[1] = "ILR".into();
        assert!(diff(&pinned, &fresh).iter().any(|v| v.contains("columns changed")));

        // The check is symmetric about additions: unpinned new content
        // also fails, forcing a regenerate.
        let mut fresh = sample();
        fresh.series[0].points.push(("extra".into(), 1.0));
        assert!(diff(&pinned, &fresh).iter().any(|v| v.contains("not pinned")));
    }

    #[test]
    fn pinned_tolerance_is_authoritative() {
        let pinned = sample();
        let mut fresh = sample();
        // The fresh side claims a huge band, but the value is outside the
        // *pinned* ±15%: still a violation.
        fresh.tables[0].tolerance = Tolerance::Rel(10.0);
        fresh.tables[0].rows[0].values[0] = 3.0;
        assert_eq!(diff(&pinned, &fresh).len(), 1);
    }

    /// Info-band tables round-trip through JSON and never produce value
    /// violations — only structural changes (rows, columns) can fail.
    #[test]
    fn info_tables_round_trip_and_pass_any_value() {
        let mut snap = sample();
        snap.tables[0].tolerance = Tolerance::Info;
        let parsed = Snapshot::parse(&snap.render()).unwrap();
        assert_eq!(parsed.tables[0].tolerance, Tolerance::Info);

        let mut fresh = parsed.clone();
        fresh.tables[0].rows[0].values[0] = 123.456; // wildly off: still fine
        assert!(diff(&snap, &fresh).is_empty(), "info values must never violate");
        fresh.tables[0].rows.pop();
        assert!(
            diff(&snap, &fresh).iter().any(|v| v.contains("missing")),
            "structure is still checked on info tables"
        );
    }

    #[test]
    fn parse_rejects_malformed_snapshots() {
        assert!(Snapshot::parse("{}").is_err());
        assert!(Snapshot::parse("{\"section\": \"s\", \"mode\": \"warp\"}").is_err());
        let no_tol = r#"{"section":"s","mode":"fast","tables":[{"id":"t","title":"T","columns":["w","a"],"rows":[["x",1]]}],"series":[]}"#;
        assert!(Snapshot::parse(no_tol).unwrap_err().contains("tolerance"));
        let bad_arity = r#"{"section":"s","mode":"fast","tables":[{"id":"t","title":"T","tolerance":{"rel":0.1},"columns":["w","a"],"rows":[["x",1,2]]}],"series":[]}"#;
        assert!(Snapshot::parse(bad_arity).unwrap_err().contains("cell count"));
    }
}
