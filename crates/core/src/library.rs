//! The RaSQL query library: every example query of the paper (§2, §4,
//! Appendix C), ready to run against the conventional base-table schemas.
//!
//! Expected base tables:
//!
//! | query | tables |
//! |---|---|
//! | BOM (Q1/Q2) | `assbl(Part, SPart)`, `basic(Part, Days)` |
//! | SSSP / APSP / Count Paths / REACH / TC / CC | `edge(Src, Dst[, Cost])` |
//! | Management | `report(Emp, Mgr)` |
//! | MLM Bonus | `sales(M, P)`, `sponsor(M1, M2)` |
//! | Interval Coalesce | `inter(S, E)` |
//! | Party Attendance | `organizer(OrgName)`, `friend(Pname, Fname)` |
//! | Company Control | `shares(By, Of, Percent)` |
//! | Same Generation | `rel(Parent, Child)` |

/// BOM Q2 (§2): days-till-delivery with `max` in recursion (endo-max).
pub fn bom_delivery() -> String {
    "WITH recursive waitfor(Part, max() AS Days) AS \
       (SELECT Part, Days FROM basic) UNION \
       (SELECT assbl.Part, waitfor.Days FROM assbl, waitfor \
        WHERE assbl.SPart = waitfor.Part) \
     SELECT Part, Days FROM waitfor"
        .to_string()
}

/// BOM Q1 (§2): the stratified version (aggregate applied after recursion).
pub fn bom_delivery_stratified() -> String {
    "WITH recursive waitfor(Part, Days) AS \
       (SELECT Part, Days FROM basic) UNION \
       (SELECT assbl.Part, waitfor.Days FROM assbl, waitfor \
        WHERE assbl.SPart = waitfor.Part) \
     SELECT Part, max(Days) FROM waitfor GROUP BY Part"
        .to_string()
}

/// Example 1: single-source shortest paths from `source`.
pub fn sssp(source: i64) -> String {
    format!(
        "WITH recursive path (Dst, min() AS Cost) AS \
           (SELECT {source}, 0.0) UNION \
           (SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge \
            WHERE path.Dst = edge.Src) \
         SELECT Dst, Cost FROM path"
    )
}

/// Stratified SSSP (Fig 1 baseline) — diverges on cyclic graphs.
pub fn sssp_stratified(source: i64) -> String {
    format!(
        "WITH recursive path (Dst, Cost) AS \
           (SELECT {source}, 0.0) UNION \
           (SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge \
            WHERE path.Dst = edge.Src) \
         SELECT Dst, min(Cost) FROM path GROUP BY Dst"
    )
}

/// Example 2: connected components — per-node component ids.
pub fn cc() -> String {
    "WITH recursive cc (Src, min() AS CmpId) AS \
       (SELECT Src, Src FROM edge) UNION \
       (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src) \
     SELECT Src, CmpId FROM cc"
        .to_string()
}

/// Example 2's final form: the number of connected components.
pub fn cc_count() -> String {
    "WITH recursive cc (Src, min() AS CmpId) AS \
       (SELECT Src, Src FROM edge) UNION \
       (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src) \
     SELECT count(distinct cc.CmpId) FROM cc"
        .to_string()
}

/// Stratified CC (Fig 1 baseline).
pub fn cc_stratified() -> String {
    "WITH recursive cc (Src, CmpId) AS \
       (SELECT Src, Src FROM edge) UNION \
       (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src) \
     SELECT Src, min(CmpId) FROM cc GROUP BY Src"
        .to_string()
}

/// Example 3: number of paths from `source` to every node (DAGs).
pub fn count_paths(source: i64) -> String {
    format!(
        "WITH recursive cpaths (Dst, sum() AS Cnt) AS \
           (SELECT {source}, 1) UNION \
           (SELECT edge.Dst, cpaths.Cnt FROM cpaths, edge WHERE cpaths.Dst = edge.Src) \
         SELECT Dst, Cnt FROM cpaths"
    )
}

/// Example 4: employees under each manager.
pub fn management() -> String {
    "WITH recursive empCount (Mgr, count() AS Cnt) AS \
       (SELECT report.Emp, 1 FROM report) UNION \
       (SELECT report.Mgr, empCount.Cnt FROM empCount, report \
        WHERE empCount.Mgr = report.Emp) \
     SELECT Mgr, Cnt FROM empCount"
        .to_string()
}

/// Example 5: multi-level-marketing bonuses.
pub fn mlm_bonus() -> String {
    "WITH recursive bonus(M, sum() AS B) AS \
       (SELECT M, P * 0.1 FROM sales) UNION \
       (SELECT sponsor.M1, bonus.B * 0.5 FROM bonus, sponsor \
        WHERE bonus.M = sponsor.M2) \
     SELECT M, B FROM bonus"
        .to_string()
}

/// Example 6: interval coalescing — a two-statement script (CREATE VIEW +
/// recursive query); run with `query_script`.
pub fn interval_coalesce() -> String {
    "CREATE VIEW lstart(T) AS \
       (SELECT a.S FROM inter a, inter b WHERE a.S <= b.E \
        GROUP BY a.S HAVING a.S = min(b.S)); \
     WITH recursive coal (S, max() AS E) AS \
       (SELECT lstart.T, inter.E FROM lstart, inter WHERE lstart.T = inter.S) UNION \
       (SELECT coal.S, inter.E FROM coal, inter \
        WHERE coal.S <= inter.S AND inter.S <= coal.E) \
     SELECT S, E FROM coal"
        .to_string()
}

/// Example 7: party attendance (mutual recursion with a count threshold).
/// The paper's text types the recursive branch of `attend` with two columns;
/// the intended single-column projection is used here.
pub fn party_attendance() -> String {
    "WITH recursive attend(Person) AS \
       (SELECT OrgName FROM organizer) UNION \
       (SELECT Name FROM cntfriends WHERE Ncount >= 3), \
     recursive cntfriends(Name, count() AS Ncount) AS \
       (SELECT friend.FName, friend.Pname FROM attend, friend \
        WHERE attend.Person = friend.Pname) \
     SELECT Person FROM attend"
        .to_string()
}

/// Example 8: company control (mutual recursion with sum() in recursion;
/// the recursive rule extends control with *direct* holdings from `shares`,
/// per Mumick-Pirahesh-Ramakrishnan, so nothing is double-counted).
pub fn company_control() -> String {
    "WITH recursive cshares(ByCom, OfCom, sum() AS Tot) AS \
       (SELECT By, Of, Percent FROM shares) UNION \
       (SELECT control.Com1, shares.Of, shares.Percent FROM control, shares \
        WHERE control.Com2 = shares.By), \
     recursive control(Com1, Com2) AS \
       (SELECT ByCom, OfCom FROM cshares WHERE Tot > 50) \
     SELECT ByCom, OfCom, Tot FROM cshares"
        .to_string()
}

/// Example 9 (Appendix C): same generation.
pub fn same_generation() -> String {
    "WITH recursive sg (X, Y) AS \
       (SELECT a.Child, b.Child FROM rel a, rel b \
        WHERE a.Parent = b.Parent AND a.Child <> b.Child) UNION \
       (SELECT a.Child, b.Child FROM rel a, sg, rel b \
        WHERE a.Parent = sg.X AND b.Parent = sg.Y) \
     SELECT X, Y FROM sg"
        .to_string()
}

/// Example 10 (Appendix C): reachability (BFS) from `source`.
pub fn reach(source: i64) -> String {
    format!(
        "WITH recursive reach (Dst) AS \
           (SELECT {source}) UNION \
           (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src) \
         SELECT Dst FROM reach"
    )
}

/// Example 11 (Appendix C): all-pairs shortest paths.
pub fn apsp() -> String {
    "WITH recursive path (Src, Dst, min() AS Cost) AS \
       (SELECT Src, Dst, Cost FROM edge) UNION \
       (SELECT path.Src, edge.Dst, path.Cost + edge.Cost FROM path, edge \
        WHERE path.Dst = edge.Src) \
     SELECT Src, Dst, Cost FROM path"
        .to_string()
}

/// Transitive closure (§6) — the decomposable-plan workhorse.
pub fn transitive_closure() -> String {
    "WITH recursive tc (Src, Dst) AS \
       (SELECT Src, Dst FROM edge) UNION \
       (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) \
     SELECT Src, Dst FROM tc"
        .to_string()
}

/// Widest path (maximum bottleneck capacity) from `source`: `max()` in the
/// head with `least()` along the path — max-of-min is PreM (the max of the
/// minimum capacities distributes over path extension). Uses the scalar
/// function support beyond the paper's §4 examples.
pub fn widest_path(source: i64) -> String {
    format!(
        "WITH recursive wide (Dst, max() AS Cap) AS \
           (SELECT {source}, 1000000000.0) UNION \
           (SELECT edge.Dst, least(wide.Cap, edge.Cost) FROM wide, edge \
            WHERE wide.Dst = edge.Src) \
         SELECT Dst, Cap FROM wide"
    )
}

/// The unweighted-edge variant of [`sssp`] where `edge(Src, Dst)` has no cost
/// column: hop counts (BFS levels).
pub fn sssp_hops(source: i64) -> String {
    format!(
        "WITH recursive path (Dst, min() AS Cost) AS \
           (SELECT {source}, 0) UNION \
           (SELECT edge.Dst, path.Cost + 1 FROM path, edge \
            WHERE path.Dst = edge.Src) \
         SELECT Dst, Cost FROM path"
    )
}

/// Every query of the library by name, the parameterized ones from vertex
/// 1: the catalogue the soaks, the `CHECK` sweep and the view sweep run.
pub fn all() -> Vec<(&'static str, String)> {
    vec![
        ("bom_delivery", bom_delivery()),
        ("bom_delivery_stratified", bom_delivery_stratified()),
        ("sssp", sssp(1)),
        ("sssp_stratified", sssp_stratified(1)),
        ("cc", cc()),
        ("cc_count", cc_count()),
        ("cc_stratified", cc_stratified()),
        ("count_paths", count_paths(1)),
        ("management", management()),
        ("mlm_bonus", mlm_bonus()),
        ("interval_coalesce", interval_coalesce()),
        ("party_attendance", party_attendance()),
        ("company_control", company_control()),
        ("same_generation", same_generation()),
        ("reach", reach(1)),
        ("apsp", apsp()),
        ("transitive_closure", transitive_closure()),
        ("widest_path", widest_path(1)),
        ("sssp_hops", sssp_hops(1)),
    ]
}

#[cfg(test)]
mod tests {
    use rasql_parser::parse_statements;

    #[test]
    fn every_library_query_parses() {
        for (name, q) in super::all() {
            parse_statements(&q).unwrap_or_else(|e| panic!("{name}: {e}\n{q}"));
        }
    }
}
