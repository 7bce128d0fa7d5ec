//! Quickstart: register a table, run recursive-aggregate SQL, inspect plans
//! and stats.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rasql::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A context simulates a small cluster (one worker thread per core).
    // Tracing makes every query carry a full `QueryTrace`.
    let ctx = RaSqlContext::builder().tracing(true).build();

    // A weighted road network with a cycle — the case where aggregates in
    // recursion shine: the stratified version would never terminate.
    ctx.register(
        "edge",
        Relation::weighted_edges(&[
            (1, 2, 4.0),
            (1, 3, 1.0),
            (3, 2, 1.0),
            (2, 4, 2.0),
            (4, 1, 7.0), // back edge: the graph is cyclic
            (3, 5, 9.0),
            (5, 4, 1.0),
        ]),
    )?;

    // Single-source shortest paths with `min()` declared *in the recursion*.
    let sql = "WITH recursive path (Dst, min() AS Cost) AS \
                 (SELECT 1, 0.0) UNION \
                 (SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge \
                  WHERE path.Dst = edge.Src) \
               SELECT Dst, Cost FROM path ORDER BY Dst";

    println!("-- compiled plan ------------------------------------");
    println!("{}", ctx.explain(sql)?);

    println!("-- result -------------------------------------------");
    let result = ctx.query(sql)?;
    println!("{}", result.relation);

    println!("-- execution ----------------------------------------");
    println!(
        "fixpoint iterations: {:?}, elapsed: {:?}",
        result.stats.iterations, result.stats.elapsed
    );
    println!("{}", result.stats.metrics);

    // The trace records every fixpoint iteration and cluster stage; it also
    // exports as JSON (`trace.to_json()`) for offline analysis.
    if let Some(trace) = &result.trace {
        println!("-- trace --------------------------------------------");
        println!("{}", trace.render());
    }

    // The same data through the stratified (SQL:99-style) query would loop
    // forever on this cyclic graph; the engine detects it via the iteration
    // cap rather than hanging:
    let stratified = "WITH recursive path (Dst, Cost) AS \
                        (SELECT 1, 0.0) UNION \
                        (SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge \
                         WHERE path.Dst = edge.Src) \
                      SELECT Dst, min(Cost) FROM path GROUP BY Dst";
    let capped = RaSqlContext::builder().max_iterations(50).build();
    capped.register(
        "edge",
        Relation::weighted_edges(&[(1, 2, 1.0), (2, 1, 1.0)]),
    )?;
    match capped.query(stratified) {
        Err(e) => println!("\nstratified version on a cycle: {e}"),
        Ok(_) => unreachable!("cycle cannot converge under set semantics"),
    }
    Ok(())
}
