//! Fixture: must lint clean under ANY virtual path. Forbidden patterns
//! appear only where the lexer must see through them — comments, strings,
//! raw strings — plus the sanctioned shared-buffer idiom.

// rows.to_vec() in a line comment; record_iteration( too.
/* Row::new( inside a /* nested */ block comment */

fn clean() {
    let shared = Relation::from_shared(Arc::clone(&rows));
    let s = "rows.to_vec() and Instant::now() and HashTable::build( inside a string";
    let r = r#"chunk.to_vec() and Value::Int( in a raw string"#;
    let b = b"begin_clique( in a byte string";
    let lifetime_not_char: &'static str = "ok";
    let _ = (shared, s, r, b, lifetime_not_char);
}
