//! Graph analytics on a generated social network: the paper's §8.1 workloads
//! (REACH, CC, SSSP) executed as RaSQL queries and cross-checked against the
//! serial oracles, with a side-by-side of the baseline engines.
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```

use rasql::core::{library, EngineConfig};
use rasql::datagen::{rmat, RmatConfig};
use rasql::exec::{Cluster, ClusterConfig};
use rasql::gap;
use rasql::myria::{Algorithm, MyriaEngine};
use rasql::vertex::{BspEngine, Sssp, VertexGraph};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A skewed RMAT graph, the paper's synthetic workload.
    let n = 20_000;
    let edges = rmat(
        n,
        RmatConfig {
            weighted: true,
            ..Default::default()
        },
        42,
    );
    println!("graph: {n} vertices, {} weighted edges (RMAT)", edges.len());

    // --- RaSQL ---
    let ctx = EngineConfig::rasql().build();
    ctx.register("edge", edges.clone())?;

    let t = Instant::now();
    let reach = ctx.query(&library::reach(1))?.relation;
    println!("RaSQL REACH: {} vertices in {:?}", reach.len(), t.elapsed());

    let t = Instant::now();
    let cc = ctx.query(&library::cc_count())?.relation;
    println!(
        "RaSQL CC:    {} components in {:?}",
        cc.rows()[0][0],
        t.elapsed()
    );

    let t = Instant::now();
    let sssp_result = ctx.query(&library::sssp(1))?;
    let sssp = sssp_result.relation;
    println!("RaSQL SSSP:  {} reached in {:?}", sssp.len(), t.elapsed());
    println!(
        "             iterations {:?}, {}",
        sssp_result.stats.iterations, sssp_result.stats.metrics
    );

    // --- Cross-check against the serial oracle ---
    let csr = gap::Csr::from_relation(&edges);
    let oracle = gap::sssp_dijkstra(&csr, 1);
    assert_eq!(sssp.len(), oracle.len());
    for r in sssp.rows() {
        let d = r[0].as_int().unwrap();
        assert!((r[1].as_f64().unwrap() - oracle[&d]).abs() < 1e-9);
    }
    println!("SSSP result verified against Dijkstra ✓");

    // --- The baseline engines on the same task ---
    let g = VertexGraph::from_relation(&edges);
    let cluster = Cluster::new(ClusterConfig::default());
    let t = Instant::now();
    let (vals, steps) = BspEngine::new(&cluster).run(&g, Sssp { source: 1 });
    println!(
        "Giraph-analog SSSP: {} reached, {steps} supersteps, {:?}",
        vals.iter().filter(|v| v.is_finite()).count(),
        t.elapsed()
    );

    let t = Instant::now();
    let (vals, stats) = MyriaEngine::new(rasql::exec::ClusterConfig::default().workers)
        .run(&edges, Algorithm::Sssp { source: 1 });
    println!(
        "Myria-analog SSSP:  {} reached, {} async messages, {:?}",
        vals.iter().filter(|v| v.is_finite()).count(),
        stats.messages,
        t.elapsed()
    );
    Ok(())
}
