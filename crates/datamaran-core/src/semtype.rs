//! Domain-specific (semantic) type awareness for extracted columns.
//!
//! The user study (§6.3) notes that Datamaran's output is deliberately fine-grained — an IP
//! address becomes four integer columns — and that "Datamaran should be enhanced with type
//! awareness (e.g., for phone numbers, IPs, URLs)" so that such values can be reported as a
//! single semantic unit.  This module implements that enhancement as a post-processing pass:
//!
//! * [`detect`] classifies a single string value into a [`SemanticType`];
//! * [`infer_column`] classifies a column from its values (majority vote with a confidence);
//! * [`annotate_table`] / [`annotate_result`] annotate a denormalized table or a whole
//!   [`ExtractionResult`], additionally recognizing runs of adjacent columns that together
//!   form one composite value (an IPv4 split into four octet columns, a `HH:MM:SS` time split
//!   into three columns) so downstream consumers can merge them back.
//!
//! All recognizers are hand-written scanners over ASCII text — no regex engine is needed and
//! values never allocate.

use crate::fieldtype::parse_integer;
use crate::pipeline::ExtractionResult;
use crate::relational::Table;

/// Semantic classification of a field value.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SemanticType {
    /// A dotted-quad IPv4 address, e.g. `192.168.0.1`.
    IpV4,
    /// An IPv6 address in colon-hex notation.
    IpV6,
    /// A calendar date (`2018-06-10`, `2018/06/10`, or `10-06-2018`).
    Date,
    /// A wall-clock time (`04:02:24`, optionally with a fractional part).
    Time,
    /// A combined timestamp (date `T`/space time, e.g. `2018-06-10 04:02:24`).
    Timestamp,
    /// A URL with an explicit scheme (`http://…`, `https://…`, `ftp://…`).
    Url,
    /// An absolute filesystem-style path (`/var/log/syslog`).
    Path,
    /// An e-mail address.
    Email,
    /// A UUID (8-4-4-4-12 hex digits).
    Uuid,
    /// A MAC address (six colon- or dash-separated hex octets).
    MacAddress,
    /// A hexadecimal identifier of at least 6 digits (commit hashes, pointers, …).
    HexId,
    /// An integer (possibly signed).
    Integer,
    /// A real number with a decimal point.
    Real,
    /// A percentage (`73%` or `12.5%`).
    Percentage,
    /// A byte size with unit suffix (`12KB`, `3.4 MiB`).
    ByteSize,
    /// A log severity keyword (`INFO`, `WARN`, `ERROR`, …).
    Severity,
    /// A short machine identifier: letters/digits/`_`/`-`, no spaces.
    Identifier,
    /// Anything else (free text).
    Text,
}

impl SemanticType {
    /// Short lowercase name (used in reports and CSV headers).
    pub fn name(&self) -> &'static str {
        match self {
            SemanticType::IpV4 => "ipv4",
            SemanticType::IpV6 => "ipv6",
            SemanticType::Date => "date",
            SemanticType::Time => "time",
            SemanticType::Timestamp => "timestamp",
            SemanticType::Url => "url",
            SemanticType::Path => "path",
            SemanticType::Email => "email",
            SemanticType::Uuid => "uuid",
            SemanticType::MacAddress => "mac",
            SemanticType::HexId => "hex_id",
            SemanticType::Integer => "integer",
            SemanticType::Real => "real",
            SemanticType::Percentage => "percentage",
            SemanticType::ByteSize => "byte_size",
            SemanticType::Severity => "severity",
            SemanticType::Identifier => "identifier",
            SemanticType::Text => "text",
        }
    }

    /// `true` for types that carry a single numeric value.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            SemanticType::Integer
                | SemanticType::Real
                | SemanticType::Percentage
                | SemanticType::ByteSize
        )
    }
}

/// Classifies one value.  The most specific matching type wins; empty strings are [`Text`].
///
/// [`Text`]: SemanticType::Text
pub fn detect(value: &str) -> SemanticType {
    let v = value.trim();
    if v.is_empty() {
        return SemanticType::Text;
    }
    if is_ipv4(v) {
        return SemanticType::IpV4;
    }
    if is_ipv6(v) {
        return SemanticType::IpV6;
    }
    if is_uuid(v) {
        return SemanticType::Uuid;
    }
    if is_mac(v) {
        return SemanticType::MacAddress;
    }
    if is_timestamp(v) {
        return SemanticType::Timestamp;
    }
    if is_date(v) {
        return SemanticType::Date;
    }
    if is_time(v) {
        return SemanticType::Time;
    }
    if is_url(v) {
        return SemanticType::Url;
    }
    if is_email(v) {
        return SemanticType::Email;
    }
    if is_path(v) {
        return SemanticType::Path;
    }
    if is_percentage(v) {
        return SemanticType::Percentage;
    }
    if is_byte_size(v) {
        return SemanticType::ByteSize;
    }
    if is_severity(v) {
        return SemanticType::Severity;
    }
    if parse_integer(v).is_some() {
        return SemanticType::Integer;
    }
    if is_real(v) {
        return SemanticType::Real;
    }
    if is_hex_id(v) {
        return SemanticType::HexId;
    }
    if is_identifier(v) {
        return SemanticType::Identifier;
    }
    SemanticType::Text
}

/// A column-level semantic annotation.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnAnnotation {
    /// Column index in the table.
    pub column: usize,
    /// The inferred semantic type.
    pub semantic: SemanticType,
    /// Fraction of non-empty values that individually match the inferred type.
    pub confidence: f64,
}

/// A run of adjacent columns that, joined with a fixed delimiter, form one composite value
/// (e.g. four octet columns forming an IPv4 address).
#[derive(Clone, Debug, PartialEq)]
pub struct CompositeColumn {
    /// The first column of the run.
    pub first_column: usize,
    /// Number of adjacent columns in the run.
    pub width: usize,
    /// The delimiter to re-insert between the columns.
    pub delimiter: char,
    /// The semantic type of the joined value.
    pub semantic: SemanticType,
}

/// Semantic annotation of one table: per-column types plus composite column runs.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TableAnnotation {
    /// One annotation per column, in column order.
    pub columns: Vec<ColumnAnnotation>,
    /// Detected multi-column composites (non-overlapping, left to right).
    pub composites: Vec<CompositeColumn>,
}

/// Minimum fraction of values that must agree for a column-level classification.
const COLUMN_AGREEMENT: f64 = 0.9;

/// Infers the semantic type of a column from its values: the most common per-value type, if
/// at least 90% of the non-empty values agree; otherwise [`SemanticType::Text`] (or
/// [`SemanticType::Identifier`] when everything is at least identifier-shaped).
pub fn infer_column(values: &[&str]) -> (SemanticType, f64) {
    let mut counts: Vec<(SemanticType, usize)> = Vec::new();
    let mut total = 0usize;
    for v in values {
        if v.trim().is_empty() {
            continue;
        }
        total += 1;
        let t = detect(v);
        match counts.iter_mut().find(|(k, _)| *k == t) {
            Some((_, c)) => *c += 1,
            None => counts.push((t, 1)),
        }
    }
    if total == 0 {
        return (SemanticType::Text, 0.0);
    }
    counts.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    let (best, n) = counts[0];
    let confidence = n as f64 / total as f64;
    if confidence >= COLUMN_AGREEMENT {
        (best, confidence)
    } else if counts.iter().all(|(t, _)| *t != SemanticType::Text) {
        (SemanticType::Identifier, confidence)
    } else {
        (SemanticType::Text, confidence)
    }
}

/// Annotates a denormalized table: per-column semantic types plus composite column runs.
pub fn annotate_table(table: &Table) -> TableAnnotation {
    let n = table.columns.len();
    let mut columns = Vec::with_capacity(n);
    let mut column_values: Vec<Vec<&str>> = vec![Vec::new(); n];
    for r in 0..table.row_count() {
        for (c, v) in table.row(r).enumerate().take(n) {
            column_values[c].push(v);
        }
    }
    for (c, vals) in column_values.iter().enumerate() {
        let (semantic, confidence) = infer_column(vals);
        columns.push(ColumnAnnotation {
            column: c,
            semantic,
            confidence,
        });
    }
    let composites = detect_composites(&column_values, &columns, table);
    TableAnnotation {
        columns,
        composites,
    }
}

/// Annotates every record type of an extraction result (one [`TableAnnotation`] per
/// discovered structure, in discovery order), using the denormalized tables.
pub fn annotate_result(result: &ExtractionResult) -> Vec<TableAnnotation> {
    result
        .structures
        .iter()
        .map(|s| annotate_table(&s.denormalized))
        .collect()
}

/// Composite patterns tried, in priority order: (width, joiner, expected joined type).
const COMPOSITE_PATTERNS: &[(usize, char, SemanticType)] = &[
    (4, '.', SemanticType::IpV4),
    (3, ':', SemanticType::Time),
    (3, '-', SemanticType::Date),
    (3, '/', SemanticType::Date),
    (2, ':', SemanticType::Time),
];

fn detect_composites(
    column_values: &[Vec<&str>],
    columns: &[ColumnAnnotation],
    table: &Table,
) -> Vec<CompositeColumn> {
    let n = columns.len();
    let mut composites = Vec::new();
    let mut c = 0usize;
    'outer: while c < n {
        for &(width, delimiter, semantic) in COMPOSITE_PATTERNS {
            if c + width > n {
                continue;
            }
            // Every column in the run must be numeric-ish and the joined sample values must
            // classify as the composite type.
            if !(c..c + width).all(|k| columns[k].semantic == SemanticType::Integer) {
                continue;
            }
            let rows = table.row_count().min(16);
            if rows == 0 {
                continue;
            }
            let all_match = (0..rows).all(|r| {
                let joined: Vec<&str> = (c..c + width)
                    .map(|k| column_values[k].get(r).copied().unwrap_or(""))
                    .collect();
                detect(&joined.join(&delimiter.to_string())) == semantic
            });
            if all_match {
                composites.push(CompositeColumn {
                    first_column: c,
                    width,
                    delimiter,
                    semantic,
                });
                c += width;
                continue 'outer;
            }
        }
        c += 1;
    }
    composites
}

// ---------------------------------------------------------------------------
// Individual recognizers.
// ---------------------------------------------------------------------------

fn is_ipv4(v: &str) -> bool {
    let mut parts = 0usize;
    for p in v.split('.') {
        if p.is_empty() || p.len() > 3 || !p.bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
        if p.parse::<u32>().map(|x| x > 255).unwrap_or(true) {
            return false;
        }
        parts += 1;
    }
    parts == 4
}

fn is_ipv6(v: &str) -> bool {
    if !v.contains(':') || v.contains('.') {
        return false;
    }
    let groups: Vec<&str> = v.split(':').collect();
    if groups.len() < 3 || groups.len() > 8 {
        return false;
    }
    let mut empty_runs = 0usize;
    for g in &groups {
        if g.is_empty() {
            empty_runs += 1;
            continue;
        }
        if g.len() > 4 || !g.bytes().all(|b| b.is_ascii_hexdigit()) {
            return false;
        }
    }
    // "::" compression appears as consecutive empty groups; allow at most one run of them.
    empty_runs <= 2 && (groups.len() == 8 || empty_runs > 0)
}

fn is_uuid(v: &str) -> bool {
    let parts: Vec<&str> = v.split('-').collect();
    parts.len() == 5
        && [8usize, 4, 4, 4, 12]
            .iter()
            .zip(&parts)
            .all(|(len, p)| p.len() == *len && p.bytes().all(|b| b.is_ascii_hexdigit()))
}

fn is_mac(v: &str) -> bool {
    let sep = if v.contains(':') {
        ':'
    } else if v.contains('-') {
        '-'
    } else {
        return false;
    };
    let parts: Vec<&str> = v.split(sep).collect();
    parts.len() == 6
        && parts
            .iter()
            .all(|p| p.len() == 2 && p.bytes().all(|b| b.is_ascii_hexdigit()))
}

fn is_date(v: &str) -> bool {
    for sep in ['-', '/'] {
        let parts: Vec<&str> = v.split(sep).collect();
        if parts.len() == 3
            && parts
                .iter()
                .all(|p| !p.is_empty() && p.len() <= 4 && p.bytes().all(|b| b.is_ascii_digit()))
        {
            // Either the first (YYYY-MM-DD) or the last (DD-MM-YYYY) component is a year.
            let year_first = parts[0].len() == 4;
            let year_last = parts[2].len() == 4;
            if year_first || year_last {
                return true;
            }
        }
    }
    false
}

fn is_time(v: &str) -> bool {
    let (hms, frac) = match v.split_once('.') {
        Some((a, b)) => (a, Some(b)),
        None => (v, None),
    };
    if let Some(f) = frac {
        if f.is_empty() || !f.bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
    }
    let parts: Vec<&str> = hms.split(':').collect();
    (parts.len() == 2 || parts.len() == 3)
        && parts
            .iter()
            .all(|p| (p.len() == 1 || p.len() == 2) && p.bytes().all(|b| b.is_ascii_digit()))
        && parts[0].parse::<u32>().map(|h| h < 24).unwrap_or(false)
        && parts[1..]
            .iter()
            .all(|p| p.parse::<u32>().map(|x| x < 60).unwrap_or(false))
}

fn is_timestamp(v: &str) -> bool {
    for sep in ['T', ' '] {
        if let Some((d, t)) = v.split_once(sep) {
            let t = t.trim_end_matches('Z');
            if is_date(d) && is_time(t) {
                return true;
            }
        }
    }
    false
}

fn is_url(v: &str) -> bool {
    for scheme in ["http://", "https://", "ftp://", "file://"] {
        if let Some(rest) = v.strip_prefix(scheme) {
            return !rest.is_empty() && !rest.contains(char::is_whitespace);
        }
    }
    false
}

fn is_path(v: &str) -> bool {
    v.starts_with('/')
        && v.len() > 1
        && !v.contains(char::is_whitespace)
        && v.bytes().filter(|b| *b == b'/').count() >= 1
}

fn is_email(v: &str) -> bool {
    let Some((local, domain)) = v.split_once('@') else {
        return false;
    };
    !local.is_empty()
        && !domain.is_empty()
        && domain.contains('.')
        && !domain.starts_with('.')
        && !domain.ends_with('.')
        && !v.contains(char::is_whitespace)
        && v.bytes().filter(|b| *b == b'@').count() == 1
}

fn is_percentage(v: &str) -> bool {
    v.strip_suffix('%')
        .map(|num| parse_integer(num).is_some() || is_real(num))
        .unwrap_or(false)
}

fn is_byte_size(v: &str) -> bool {
    const UNITS: &[&str] = &["B", "KB", "MB", "GB", "TB", "KiB", "MiB", "GiB", "TiB"];
    for unit in UNITS {
        if let Some(num) = v.strip_suffix(unit) {
            let num = num.trim_end();
            if !num.is_empty() && (parse_integer(num).is_some() || is_real(num)) {
                return true;
            }
        }
    }
    false
}

fn is_severity(v: &str) -> bool {
    const LEVELS: &[&str] = &[
        "TRACE", "DEBUG", "INFO", "NOTICE", "WARN", "WARNING", "ERROR", "ERR", "CRITICAL", "FATAL",
        "PANIC",
    ];
    LEVELS.iter().any(|l| v.eq_ignore_ascii_case(l))
}

fn is_real(v: &str) -> bool {
    let body = v.strip_prefix('-').unwrap_or(v);
    let Some((int, frac)) = body.split_once('.') else {
        return false;
    };
    !int.is_empty()
        && !frac.is_empty()
        && int.bytes().all(|b| b.is_ascii_digit())
        && frac.bytes().all(|b| b.is_ascii_digit())
}

fn is_hex_id(v: &str) -> bool {
    let body = v
        .strip_prefix("0x")
        .or_else(|| v.strip_prefix("0X"))
        .unwrap_or(v);
    body.len() >= 6
        && body.bytes().all(|b| b.is_ascii_hexdigit())
        && body.bytes().any(|b| !b.is_ascii_digit())
}

fn is_identifier(v: &str) -> bool {
    !v.is_empty()
        && v.len() <= 64
        && v.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_ipv4_and_rejects_near_misses() {
        assert_eq!(detect("192.168.0.1"), SemanticType::IpV4);
        assert_eq!(detect("10.0.0.255"), SemanticType::IpV4);
        assert_ne!(detect("300.1.2.3"), SemanticType::IpV4);
        assert_ne!(detect("1.2.3"), SemanticType::IpV4);
        assert_ne!(detect("1.2.3.4.5"), SemanticType::IpV4);
    }

    #[test]
    fn detects_ipv6() {
        assert_eq!(detect("fe80::1a2b:3c4d:5e6f:7a8b"), SemanticType::IpV6);
        assert_eq!(
            detect("2001:0db8:0000:0000:0000:ff00:0042:8329"),
            SemanticType::IpV6
        );
        assert_ne!(detect("04:02:24"), SemanticType::IpV6);
    }

    #[test]
    fn detects_dates_times_timestamps() {
        assert_eq!(detect("2018-06-10"), SemanticType::Date);
        assert_eq!(detect("10/06/2018"), SemanticType::Date);
        assert_eq!(detect("04:02:24"), SemanticType::Time);
        assert_eq!(detect("4:02"), SemanticType::Time);
        assert_eq!(detect("04:02:24.531"), SemanticType::Time);
        assert_eq!(detect("2018-06-10 04:02:24"), SemanticType::Timestamp);
        assert_eq!(detect("2018-06-10T04:02:24Z"), SemanticType::Timestamp);
        assert_ne!(detect("25:99:99"), SemanticType::Time);
    }

    #[test]
    fn detects_urls_paths_emails() {
        assert_eq!(detect("https://example.org/x?q=1"), SemanticType::Url);
        assert_eq!(detect("/var/log/syslog"), SemanticType::Path);
        assert_eq!(detect("alice@example.org"), SemanticType::Email);
        assert_ne!(detect("not an email @ all"), SemanticType::Email);
    }

    #[test]
    fn detects_ids_and_numbers() {
        assert_eq!(
            detect("123e4567-e89b-12d3-a456-426614174000"),
            SemanticType::Uuid
        );
        assert_eq!(detect("aa:bb:cc:dd:ee:ff"), SemanticType::MacAddress);
        assert_eq!(detect("deadbeef42"), SemanticType::HexId);
        assert_eq!(detect("0x7ffe12ab"), SemanticType::HexId);
        assert_eq!(detect("-42"), SemanticType::Integer);
        assert_eq!(detect("3.1415"), SemanticType::Real);
        assert_eq!(detect("73%"), SemanticType::Percentage);
        assert_eq!(detect("12.5%"), SemanticType::Percentage);
        assert_eq!(detect("64KB"), SemanticType::ByteSize);
        assert_eq!(detect("3.4 MiB"), SemanticType::ByteSize);
    }

    #[test]
    fn detects_severity_identifier_text() {
        assert_eq!(detect("ERROR"), SemanticType::Severity);
        assert_eq!(detect("warn"), SemanticType::Severity);
        assert_eq!(detect("srv-007"), SemanticType::Identifier);
        assert_eq!(detect("free text with spaces"), SemanticType::Text);
        assert_eq!(detect(""), SemanticType::Text);
    }

    #[test]
    fn numeric_flag_covers_numeric_types() {
        assert!(SemanticType::Integer.is_numeric());
        assert!(SemanticType::Percentage.is_numeric());
        assert!(!SemanticType::IpV4.is_numeric());
    }

    #[test]
    fn column_inference_requires_agreement() {
        let ips = vec!["10.0.0.1", "10.0.0.2", "192.168.1.9"];
        assert_eq!(infer_column(&ips).0, SemanticType::IpV4);
        let mixed = vec!["10.0.0.1", "hello world", "also text here"];
        assert_eq!(infer_column(&mixed).0, SemanticType::Text);
        let idish = vec!["abc", "127", "x-1"];
        assert_eq!(infer_column(&idish).0, SemanticType::Identifier);
        assert_eq!(infer_column(&[]).0, SemanticType::Text);
    }

    #[test]
    fn column_inference_reports_confidence() {
        let vals = vec!["1", "2", "3", "oops"];
        let (_, conf) = infer_column(&vals);
        assert!((conf - 0.75).abs() < 1e-9);
    }

    fn table(columns: &[&str], rows: &[&[&str]]) -> Table {
        Table::from_strings(
            "t",
            columns.iter().map(|c| c.to_string()).collect(),
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_string()).collect())
                .collect(),
        )
    }

    #[test]
    fn annotate_table_types_every_column() {
        let t = table(
            &["a", "b", "c"],
            &[&["10.0.0.1", "GET", "42"], &["10.0.0.2", "POST", "17"]],
        );
        let ann = annotate_table(&t);
        assert_eq!(ann.columns.len(), 3);
        assert_eq!(ann.columns[0].semantic, SemanticType::IpV4);
        assert_eq!(ann.columns[2].semantic, SemanticType::Integer);
    }

    #[test]
    fn composite_ipv4_run_is_detected() {
        let t = table(
            &["o1", "o2", "o3", "o4", "user"],
            &[
                &["192", "168", "0", "1", "alice"],
                &["10", "0", "12", "255", "bob"],
            ],
        );
        let ann = annotate_table(&t);
        assert_eq!(ann.composites.len(), 1);
        let c = &ann.composites[0];
        assert_eq!(c.first_column, 0);
        assert_eq!(c.width, 4);
        assert_eq!(c.delimiter, '.');
        assert_eq!(c.semantic, SemanticType::IpV4);
    }

    #[test]
    fn composite_time_run_is_detected_after_other_columns() {
        let t = table(
            &["h", "m", "s", "msg"],
            &[
                &["04", "02", "24", "started"],
                &["23", "59", "01", "stopped"],
            ],
        );
        let ann = annotate_table(&t);
        assert_eq!(ann.composites.len(), 1);
        assert_eq!(ann.composites[0].semantic, SemanticType::Time);
        assert_eq!(ann.composites[0].width, 3);
    }

    #[test]
    fn no_composite_on_unrelated_integer_columns() {
        let t = table(
            &["count", "size"],
            &[&["4", "1024"], &["7", "2048"], &["900", "99"]],
        );
        let ann = annotate_table(&t);
        // A 2-wide ':' join would have to look like a clock time for every sampled row;
        // "900:99" does not, so no composite must be reported.
        assert!(ann.composites.is_empty(), "{:?}", ann.composites);
    }

    #[test]
    fn empty_table_annotation_is_empty() {
        let t = table(&[], &[]);
        let ann = annotate_table(&t);
        assert!(ann.columns.is_empty());
        assert!(ann.composites.is_empty());
    }
}
