//! Seeded-random properties for the DSL: printed programs re-parse, chains
//! are always valid join paths, and the lexer/parser never panic on
//! arbitrary input.
//!
//! Cases come from the std-only `SplitMix64` generator over fixed seed
//! ranges (the case counts of the proptest suite this replaces).

use graphgen_common::SplitMix64;
use graphgen_dsl::{analyze, compile, parse, Atom, HeadKind, Program, Rule, Term};

const CASES: u64 = 256;

/// Run `check` on `CASES` generators seeded from `base`.
fn for_each_case(base: u64, mut check: impl FnMut(u64, &mut SplitMix64)) {
    for seed in 0..CASES {
        check(seed, &mut SplitMix64::new(base + seed));
    }
}

/// A uniform draw from `lo..hi`.
fn range(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.next_below((hi - lo) as u64) as usize
}

fn pick(rng: &mut SplitMix64, alphabet: &[u8]) -> char {
    char::from(alphabet[range(rng, 0, alphabet.len())])
}

/// `[A-Za-z][A-Za-z0-9_]{0,6}`.
fn ident(rng: &mut SplitMix64) -> String {
    const LETTERS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_";
    let mut s = String::from(pick(rng, LETTERS));
    for _ in 0..range(rng, 0, 7) {
        s.push(pick(rng, REST));
    }
    s
}

/// A variable, an integer in `-100..100`, a `[a-z ]{0,6}` string or `_`.
fn term(rng: &mut SplitMix64) -> Term {
    match rng.next_below(4) {
        0 => Term::Var(ident(rng)),
        1 => Term::Int(range(rng, 0, 200) as i64 - 100),
        2 => Term::Str(
            (0..range(rng, 0, 7))
                .map(|_| pick(rng, b"abcdefghijklmnopqrstuvwxyz "))
                .collect(),
        ),
        _ => Term::Wildcard,
    }
}

/// An identifier over 1 to 4 terms.
fn atom(rng: &mut SplitMix64) -> Atom {
    let relation = ident(rng);
    let args = (0..range(rng, 1, 5)).map(|_| term(rng)).collect();
    Atom::new(relation, args)
}

/// `\PC{0,200}`: up to 200 characters, none of them a control character.
/// Half are printable ASCII, so the lexer's own punctuation comes up often.
fn text(rng: &mut SplitMix64) -> String {
    let len = range(rng, 0, 201);
    let mut s = String::new();
    while s.chars().count() < len {
        if rng.next_below(2) == 0 {
            s.push(char::from(b' ' + rng.next_below(95) as u8));
        } else if let Some(c) = char::from_u32(rng.next_below(0x3_0000) as u32) {
            if !c.is_control() {
                s.push(c);
            }
        }
    }
    s
}

fn render(program: &Program) -> String {
    let mut out = String::new();
    for rule in &program.rules {
        let head = match rule.head {
            HeadKind::Nodes => "Nodes",
            HeadKind::Edges => "Edges",
        };
        out.push_str(head);
        out.push('(');
        for (i, t) in rule.head_args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&t.to_string());
        }
        out.push_str(") :- ");
        for (i, a) in rule.body.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&a.to_string());
        }
        out.push_str(".\n");
    }
    out
}

#[test]
fn lexer_and_parser_never_panic() {
    for_each_case(0xD5_0000, |_, rng| {
        let _ = parse(&text(rng)); // must not panic, errors are fine
    });
}

#[test]
fn printed_programs_reparse() {
    for_each_case(0xD5_1000, |seed, rng| {
        let rules = (0..range(rng, 1, 4))
            .map(|_| {
                let head = if rng.next_below(2) == 0 {
                    HeadKind::Nodes
                } else {
                    HeadKind::Edges
                };
                let head_args = (0..range(rng, 1, 4))
                    .map(|_| Term::Var(ident(rng)))
                    .collect();
                let body = (0..range(rng, 1, 4)).map(|_| atom(rng)).collect();
                Rule::new(head, head_args, body)
            })
            .collect();
        let program = Program { rules };
        // Reserved names in bodies make rendering unparseable in a benign
        // way; skip those cases.
        let reserved = program.rules.iter().any(|r| {
            r.body
                .iter()
                .any(|a| a.relation == "Nodes" || a.relation == "Edges")
        });
        if reserved {
            return;
        }
        let text = render(&program);
        let reparsed = parse(&text).unwrap_or_else(|e| {
            panic!("seed {seed}: rendered program must re-parse: {e:?}\n{text}")
        });
        assert_eq!(reparsed, program, "seed {seed}:\n{text}");
    });
}

#[test]
fn chains_are_connected_join_paths() {
    for_each_case(0xD5_2000, |seed, rng| {
        let n_extra = range(rng, 0, 3);
        let use_self_join = rng.next_below(2) == 0;
        // Build co-membership queries of varying chain length and verify
        // the analyzer returns a chain whose consecutive columns join.
        let mut body = String::from("R0(ID1, J0)");
        for i in 0..n_extra {
            body.push_str(&format!(", R{}(J{}, J{})", i + 1, i, i + 1));
        }
        let last = if use_self_join {
            format!(", R0(ID2, J{n_extra})")
        } else {
            format!(", Z(ID2, J{n_extra})")
        };
        body.push_str(&last);
        let text = format!("Nodes(X) :- E(X).\nEdges(ID1, ID2) :- {body}.");
        let spec = compile(&text).expect("chain should compile");
        let chain = &spec.edges[0];
        assert_eq!(chain.steps.len(), n_extra + 2, "seed {seed}");
        // Endpoint columns are where ID1/ID2 live.
        assert_eq!(chain.steps[0].in_col, 0, "seed {seed}");
        assert_eq!(chain.steps.last().unwrap().out_col, 0, "seed {seed}");
    });
}

#[test]
fn acyclicity_checker_accepts_paths_rejects_cycles() {
    for_each_case(0xD5_3000, |seed, rng| {
        let len = range(rng, 2, 6);
        let mut chain_body = String::new();
        for i in 0..len {
            if i > 0 {
                chain_body.push_str(", ");
            }
            chain_body.push_str(&format!("R(V{}, V{})", i, i + 1));
        }
        let p = parse(&format!("Edges(V0, V{len}) :- {chain_body}.")).unwrap();
        assert!(analyze::is_acyclic(&p.rules[0].body), "seed {seed}");

        let mut cycle_body = chain_body.clone();
        cycle_body.push_str(&format!(", R(V{len}, V0)"));
        let p = parse(&format!("Edges(V0, V{len}) :- {cycle_body}.")).unwrap();
        assert!(!analyze::is_acyclic(&p.rules[0].body), "seed {seed}");
    });
}
