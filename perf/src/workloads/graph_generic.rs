//! `graph_generic`: recursive queries no specialised kernel covers, so the
//! row interpreter — joins, set and aggregate state, shuffles, pipelines —
//! does all the work.

use crate::harness::{
    engine, measure, run_cycles, Placed, Recorder, Report, RunArgs, Stmt, TracedSide,
};
use crate::inputs::{hierarchy, rmat_graph};
use crate::layers;
use crate::oracle::{self, Expect};
use crate::stats::ratio;
use rasql_core::{library, RaSqlContext};
use rasql_gap::Csr;
use rasql_storage::{DataType, Relation, Schema};

/// RMAT vertices of the `edge` table TC and stratified CC read.
const CLOSURE_VERTICES: usize = 512;
/// RMAT vertices of the weighted `edge` table APSP reads.
const APSP_VERTICES: usize = 256;
/// Nodes of the `rel` tree same-generation reads.
const SG_NODES: usize = 1_000;
/// Nodes of the hierarchy MLM bonus and BOM delivery read.
const TREE_NODES: usize = 20_000;

struct Inputs {
    /// Per context: the tables to register.
    tables: [Vec<(&'static str, Relation)>; 2],
    cycle: Vec<Placed>,
}

fn inputs(args: &RunArgs) -> Inputs {
    let scale = |n: usize| if args.smoke { n / 16 } else { n };
    let closure_edges = rmat_graph(scale(CLOSURE_VERTICES), false, args.seed).0;
    let apsp_edges = rmat_graph(scale(APSP_VERTICES), true, args.seed).0;
    let tree = |nodes: usize| hierarchy(scale(nodes), args.seed);
    let rel = Relation::try_new(
        Schema::new(vec![("Parent", DataType::Int), ("Child", DataType::Int)]),
        tree(SG_NODES).assbl.into_rows(),
    )
    .expect("two-column rows");
    let hierarchy = tree(TREE_NODES);

    let cc = oracle::cc(&closure_edges);
    let cycle = vec![
        (
            0,
            Stmt::new(
                "transitive_closure",
                library::transitive_closure(),
                Expect::exact(&oracle::transitive_closure(&Csr::from_relation(
                    &closure_edges,
                ))),
            ),
        ),
        (
            0,
            Stmt::new(
                "cc_stratified",
                library::cc_stratified(),
                Expect::exact(&cc),
            ),
        ),
        (
            1,
            Stmt::new(
                "apsp",
                library::apsp(),
                Expect::exact(&oracle::apsp(&Csr::from_relation(&apsp_edges))),
            ),
        ),
        (
            0,
            Stmt::new(
                "same_generation",
                library::same_generation(),
                Expect::exact(&oracle::same_generation(&rel)),
            ),
        ),
        (
            0,
            Stmt::new(
                "mlm_bonus",
                library::mlm_bonus(),
                Expect::approx(oracle::mlm_bonus(&hierarchy.sales, &hierarchy.sponsor)),
            ),
        ),
        (
            0,
            Stmt::new(
                "bom_delivery_stratified",
                library::bom_delivery_stratified(),
                Expect::exact(&oracle::bom_delivery(&hierarchy.assbl, &hierarchy.basic)),
            ),
        ),
    ];
    Inputs {
        tables: [
            vec![
                ("edge", closure_edges),
                ("rel", rel),
                ("sales", hierarchy.sales),
                ("sponsor", hierarchy.sponsor),
                ("assbl", hierarchy.assbl),
                ("basic", hierarchy.basic),
            ],
            vec![("edge", apsp_edges)],
        ],
        cycle,
    }
}

/// Both contexts with their tables registered and one unrecorded cycle run.
fn setup(inputs: &Inputs, builder: impl Fn() -> rasql_core::ContextBuilder) -> [RaSqlContext; 2] {
    let ctxs = [0, 1].map(|i| {
        let ctx = builder().build();
        for (name, rel) in &inputs.tables[i] {
            ctx.register(name, rel.clone()).expect("register table");
        }
        ctx
    });
    for (ctx, stmt) in &inputs.cycle {
        ctxs[*ctx].query(&stmt.sql).expect("warm-up statement");
    }
    ctxs
}

pub fn run(args: &RunArgs) -> Report {
    let inputs = inputs(args);
    let mut side = TracedSide::new(args);
    // A traced run spends half its time on the governed contexts below.
    let phase = RunArgs {
        seconds: if args.traced {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        ..*args
    };
    let measured = measure(
        args,
        || setup(&inputs, engine),
        |ctxs, rec| {
            run_cycles(
                &phase,
                ctxs,
                |_| Some(&inputs.cycle[..]),
                |_| (),
                |_, _, _| (),
                rec,
                &mut side,
            );
        },
        |_| Ok(()),
    );

    let metrics = if args.traced {
        let mut metrics = side.metrics(&measured.rec);

        // The same cycles with memory charging on and a budget never reached.
        let governed_ctxs = setup(&inputs, || engine().memory_budget(1 << 40));
        let untraced = RunArgs {
            traced: false,
            seconds: args.seconds / 4.0,
            ..*args
        };
        let mut governed = Recorder::default();
        run_cycles(
            &untraced,
            &governed_ctxs,
            |_| Some(&inputs.cycle[..]),
            |_| (),
            |_, _, _| (),
            &mut governed,
            &mut TracedSide::new(&untraced),
        );
        metrics.insert(
            "exec.governor.overhead_ratio",
            ratio(governed.geomean_ms(), side.plain.geomean_ms()),
        );

        let kinds: Vec<_> = inputs
            .cycle
            .iter()
            .map(|(ctx, s)| (&governed_ctxs[*ctx], s.kind, s.sql.as_str()))
            .collect();
        layers::frontend(&kinds, &mut side.spans, &mut metrics);
        layers::generic_executor(inputs.tables[1][0].1.rows(), &mut side.spans, &mut metrics);
        metrics
    } else {
        measured.end_to_end()
    };
    let rows = |ctx: usize, table: usize| inputs.tables[ctx][table].1.len();
    let sizes = format!(
        "TC and stratified CC on {} RMAT edges, APSP on {} weighted RMAT edges, same-generation on a {}-row tree, MLM bonus and BOM delivery on a {}-row hierarchy",
        rows(0, 0),
        rows(1, 0),
        rows(0, 1),
        rows(0, 4),
    );
    Report::new(args, "graph_generic", sizes, measured, side, metrics)
}
