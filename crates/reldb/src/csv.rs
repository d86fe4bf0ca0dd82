//! Minimal CSV ingestion/serialization so the examples can ship readable
//! datasets. Supports comma separation, `\n` rows, and double-quoted fields
//! with embedded commas; no embedded newlines.

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{DataType, Value};

/// Parse one CSV line into raw string fields plus a was-quoted flag (which
/// distinguishes an empty quoted string `""` from a NULL empty field).
fn split_line(line: &str) -> DbResult<Vec<(String, bool)>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() && !quoted => {
                in_quotes = true;
                quoted = true;
            }
            '"' => return Err(DbError::Csv(format!("stray quote in `{line}`"))),
            ',' if !in_quotes => {
                fields.push((std::mem::take(&mut cur), quoted));
                quoted = false;
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(DbError::Csv(format!("unterminated quote in `{line}`")));
    }
    fields.push((cur, quoted));
    Ok(fields)
}

/// Parse CSV text (no header) into a [`Table`] with the given schema.
/// Empty fields become NULL; integer columns are parsed with `i64`.
pub fn parse_csv(text: &str, schema: Schema) -> DbResult<Table> {
    let mut table = Table::new(schema);
    for line in text.lines() {
        // Blank lines are skipped for multi-column schemas; for a
        // single-column schema they are a NULL row (needed for round-trips).
        if line.is_empty() && table.schema().arity() != 1 {
            continue;
        }
        let fields = split_line(line)?;
        if fields.len() != table.schema().arity() {
            return Err(DbError::Csv(format!(
                "expected {} fields, got {} in `{line}`",
                table.schema().arity(),
                fields.len()
            )));
        }
        let row: DbResult<Vec<Value>> = fields
            .iter()
            .enumerate()
            .map(|(i, (f, quoted))| {
                if f.is_empty() && !quoted {
                    return Ok(Value::Null);
                }
                match table.schema().column(i).dtype {
                    DataType::Int => f
                        .parse::<i64>()
                        .map(Value::Int)
                        .map_err(|e| DbError::Csv(format!("bad int `{f}`: {e}"))),
                    DataType::Str => Ok(Value::str(f.as_str())),
                }
            })
            .collect();
        table.push_row(row?)?;
    }
    Ok(table)
}

/// Serialize a table back to CSV text (no header).
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    for r in 0..table.num_rows() {
        for c in 0..table.schema().arity() {
            if c > 0 {
                out.push(',');
            }
            match table.cell(r, c) {
                Value::Null => {}
                Value::Int(v) => out.push_str(&v.to_string()),
                Value::Str(s) => {
                    if s.is_empty() || s.contains(',') || s.contains('"') {
                        out.push('"');
                        out.push_str(&s.replace('"', "\"\""));
                        out.push('"');
                    } else {
                        out.push_str(s);
                    }
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![Column::int("id"), Column::str("name")])
    }

    #[test]
    fn roundtrip_simple() {
        let t = parse_csv("1,alice\n2,bob\n", schema()).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(to_csv(&t), "1,alice\n2,bob\n");
    }

    #[test]
    fn quoted_fields() {
        let t = parse_csv("1,\"a,b\"\n2,\"say \"\"hi\"\"\"\n", schema()).unwrap();
        assert_eq!(t.cell(0, 1), &Value::str("a,b"));
        assert_eq!(t.cell(1, 1), &Value::str("say \"hi\""));
        // roundtrip re-quotes
        let back = to_csv(&t);
        let t2 = parse_csv(&back, schema()).unwrap();
        assert_eq!(t2.cell(0, 1), &Value::str("a,b"));
    }

    #[test]
    fn empty_field_is_null() {
        let t = parse_csv("1,\n,x\n", schema()).unwrap();
        assert_eq!(t.cell(0, 1), &Value::Null);
        assert_eq!(t.cell(1, 0), &Value::Null);
    }

    #[test]
    fn bad_int_rejected() {
        assert!(parse_csv("x,alice\n", schema()).is_err());
    }

    #[test]
    fn wrong_arity_rejected() {
        assert!(parse_csv("1,a,b\n", schema()).is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(parse_csv("1,\"oops\n", schema()).is_err());
    }

    /// Every table cell survives `to_csv` → `parse_csv` unchanged.
    fn assert_round_trips(t: &Table) {
        let back = parse_csv(&to_csv(t), t.schema().clone()).unwrap();
        assert_eq!(back.num_rows(), t.num_rows());
        for r in 0..t.num_rows() {
            assert_eq!(back.row(r), t.row(r));
        }
    }

    #[test]
    fn random_int_tables_round_trip() {
        let mut rng = graphgen_common::SplitMix64::new(0xC5F);
        for _ in 0..64 {
            let mut t = Table::new(Schema::new(vec![Column::int("a"), Column::int("b")]));
            for _ in 0..rng.next_below(40) {
                let cell = |rng: &mut graphgen_common::SplitMix64| match rng.next_below(8) {
                    0 => Value::Null,
                    _ => Value::int(rng.next_below(24) as i64 - 12),
                };
                let row = vec![cell(&mut rng), cell(&mut rng)];
                t.push_row(row).unwrap();
            }
            assert_round_trips(&t);
        }
    }

    #[test]
    fn random_string_tables_round_trip() {
        // Commas, quotes, spaces and the empty string (which must come back
        // as `""`, not NULL) in a single-column schema, where a blank line
        // is a NULL row.
        const ALPHABET: &[u8] = b"abxyz,\" ";
        let mut rng = graphgen_common::SplitMix64::new(0x57A);
        for _ in 0..64 {
            let mut t = Table::new(Schema::new(vec![Column::str("name")]));
            for _ in 0..rng.next_below(20) {
                let name: String = (0..rng.next_below(9))
                    .map(|_| ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize] as char)
                    .collect();
                t.push_row(vec![Value::str(name)]).unwrap();
            }
            assert_round_trips(&t);
        }
    }
}
