//! The paper's real datasets — loaders plus calibrated stand-ins.
//!
//! The paper evaluates on NBA (17,264 × 8), HOUSE (127,931 × 6) and
//! WEATHER (566,268 × 15). Those files are not redistributable, so this
//! module offers both:
//!
//! * [`load_csv`] — drop-in loading of the genuine files when present;
//! * [`RealDataset::standin`] — deterministic synthetic stand-ins with the
//!   same cardinality and dimensionality, quantised so that values repeat
//!   (the real datasets violate the distinct-value condition, which is the
//!   property §VII-B3 tests), and with a correlation blend calibrated so
//!   that `|SKY|/n` lands near the paper's Table I percentages
//!   (NBA 10.40 %, HOUSE 4.51 %, WEATHER 11.20 %).
//!
//! `skybench table1` prints the achieved skyline sizes beside the
//! paper's (README, "Reproduction harness").

use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use crate::{generate, quantize, DataError, Dataset, Distribution};
use skyline_parallel::ThreadPool;

/// The three real datasets of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealDataset {
    /// NBA player season statistics: 17,264 points, 8 dimensions.
    Nba,
    /// House(hold) expenditure data: 127,931 points, 6 dimensions.
    House,
    /// Weather station measurements: 566,268 points, 15 dimensions.
    Weather,
}

impl RealDataset {
    /// All three datasets, in the paper's order.
    pub const ALL: [RealDataset; 3] = [RealDataset::Nba, RealDataset::House, RealDataset::Weather];

    /// Table name as printed in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            RealDataset::Nba => "NBA",
            RealDataset::House => "HOUSE",
            RealDataset::Weather => "WEATHER",
        }
    }

    /// Cardinality of the genuine dataset.
    pub fn cardinality(&self) -> usize {
        match self {
            RealDataset::Nba => 17_264,
            RealDataset::House => 127_931,
            RealDataset::Weather => 566_268,
        }
    }

    /// Dimensionality of the genuine dataset.
    pub fn dims(&self) -> usize {
        match self {
            RealDataset::Nba => 8,
            RealDataset::House => 6,
            RealDataset::Weather => 15,
        }
    }

    /// `|SKY|` reported in the paper's Table I (for comparison only).
    pub fn paper_skyline_size(&self) -> usize {
        match self {
            RealDataset::Nba => 1_796,
            RealDataset::House => 5_774,
            RealDataset::Weather => 63_398,
        }
    }

    /// Generation recipe for the stand-in: (distribution, quantisation
    /// levels). Calibrated against the paper's `|SKY|/n`; see module docs.
    fn recipe(&self) -> (Distribution, u32) {
        match self {
            // Independent data at (n = 17k, d = 8) lands at ≈ 10 % skyline
            // on its own — an excellent match for NBA's 10.40 %. Coarse
            // quantisation mimics integer box-score stats.
            RealDataset::Nba => (Distribution::Independent, 64),
            // HOUSE needs ≈ 3× the independent skyline at (127k, 6):
            // a mild anticorrelated blend gets there.
            RealDataset::House => (Distribution::Blend(-0.35), 1_000),
            // WEATHER at d = 15 would have an enormous independent
            // skyline; the real data's measurements are mutually
            // correlated, pulling it down to 11.2 %.
            RealDataset::Weather => (Distribution::Blend(0.65), 200),
        }
    }

    /// Deterministic synthetic stand-in with the genuine shape.
    pub fn standin(&self, pool: &ThreadPool) -> Dataset {
        let (dist, levels) = self.recipe();
        let seed = match self {
            RealDataset::Nba => 0x004e_4241,     // "NBA"
            RealDataset::House => 0x484f_5553,   // "HOUS"
            RealDataset::Weather => 0x0057_4541, // "WEA"
        };
        let raw = generate(dist, self.cardinality(), self.dims(), seed, pool);
        quantize(&raw, levels)
    }

    /// Loads the genuine file if `path` exists, otherwise falls back to
    /// the stand-in.
    pub fn load_or_standin(&self, path: &Path, pool: &ThreadPool) -> Dataset {
        if path.exists() {
            if let Ok(ds) = load_csv(path) {
                if ds.dims() == self.dims() {
                    return ds;
                }
            }
        }
        self.standin(pool)
    }
}

/// Loads a headerless CSV (or whitespace-separated) file of `f32` rows.
pub fn load_csv(path: &Path) -> Result<Dataset, DataError> {
    let file = std::fs::File::open(path).map_err(|e| DataError::Parse(e.to_string()))?;
    let reader = BufReader::new(file);
    let mut rows: Vec<Vec<f32>> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| DataError::Parse(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let row: Result<Vec<f32>, _> = trimmed
            .split(|c: char| c == ',' || c.is_whitespace() || c == ';')
            .filter(|t| !t.is_empty())
            .map(str::parse::<f32>)
            .collect();
        match row {
            Ok(r) => rows.push(r),
            Err(e) => {
                return Err(DataError::Parse(format!("line {}: {e}", lineno + 1)));
            }
        }
    }
    Dataset::from_rows(&rows)
}

/// Writes a dataset as headerless CSV (for exporting generated workloads).
pub fn write_csv(data: &Dataset, path: &Path) -> Result<(), DataError> {
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| DataError::Parse(e.to_string()))?,
    );
    for row in data.rows() {
        let mut first = true;
        for v in row {
            if !first {
                write!(out, ",").map_err(|e| DataError::Parse(e.to_string()))?;
            }
            write!(out, "{v}").map_err(|e| DataError::Parse(e.to_string()))?;
            first = false;
        }
        writeln!(out).map_err(|e| DataError::Parse(e.to_string()))?;
    }
    out.flush().map_err(|e| DataError::Parse(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standins_have_paper_shapes() {
        let pool = ThreadPool::new(2);
        for ds in RealDataset::ALL {
            // Only validate the cheap ones exhaustively; WEATHER's shape
            // constants are checked without generating 566k × 15 values.
            assert!(ds.cardinality() > 0 && ds.dims() > 0);
        }
        let nba = RealDataset::Nba.standin(&pool);
        assert_eq!(nba.len(), 17_264);
        assert_eq!(nba.dims(), 8);
    }

    #[test]
    fn standins_contain_duplicate_values() {
        let pool = ThreadPool::new(2);
        let nba = RealDataset::Nba.standin(&pool);
        // Column 0 must contain repeated values (distinct-value condition
        // broken) — with 64 levels over 17k rows this is guaranteed.
        let mut col: Vec<u32> = nba.rows().map(|r| r[0].to_bits()).collect();
        col.sort_unstable();
        col.dedup();
        assert!(col.len() <= 64);
    }

    #[test]
    fn csv_round_trip() {
        let pool = ThreadPool::new(1);
        let ds = generate(Distribution::Independent, 100, 3, 5, &pool);
        let dir = std::env::temp_dir().join("skyline_data_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.csv");
        write_csv(&ds, &path).unwrap();
        let back = load_csv(&path).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.dims(), ds.dims());
        for (a, b) in ds.rows().zip(back.rows()) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-4);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_garbage() {
        let dir = std::env::temp_dir().join("skyline_data_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.csv");
        std::fs::write(&path, "1.0,2.0\nnot,a number\n").unwrap();
        assert!(matches!(load_csv(&path), Err(DataError::Parse(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_skips_comments_and_blanks() {
        let dir = std::env::temp_dir().join("skyline_data_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("comments.csv");
        std::fs::write(&path, "# header\n\n1.0 2.0\n3.0,4.0\n").unwrap();
        let ds = load_csv(&path).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dims(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_or_standin_falls_back() {
        let pool = ThreadPool::new(1);
        let ds = RealDataset::Nba.load_or_standin(Path::new("/nonexistent/nba.csv"), &pool);
        assert_eq!(ds.len(), RealDataset::Nba.cardinality());
    }
}
