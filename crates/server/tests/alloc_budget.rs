//! Allocation budget of the server's read path: a scan's rows go from the
//! catalog's buffer to the socket without a copy, so streaming `SELECT *`
//! allocates the same at two table sizes. Counted with this binary's own
//! global allocator over every thread but the client's, whose decoding is
//! not the server's cost. A test binary of its own, so no other test's
//! server allocates while it counts.

use rasql_client::Client;
use rasql_core::RaSqlContext;
use rasql_storage::Relation;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested: an allocation's size, a reallocation's new size.
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the client's thread: what it allocates is not counted.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if !UNCOUNTED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The server's allocations and bytes for one `sql` answered to `client`,
/// and the rows the client received.
fn served(client: &mut Client, sql: &str) -> (usize, u64, u64) {
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let results = client.query(sql).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    (results[0].rows.len(), allocations, bytes)
}

/// The server streams a scan straight from the table's row buffer, a frame
/// at a time through one reused buffer: `SELECT *` over 2 000 and over
/// 16 000 rows costs the server the same allocations and bytes, so not one
/// row is copied between the catalog and the socket.
#[test]
fn a_scan_streams_without_copying_its_rows() {
    let ctx = Arc::new(
        RaSqlContext::builder()
            .workers(1)
            .partitions(1)
            .stage_latency_us(0)
            .build(),
    );
    for (name, n) in [("small", 2_000), ("large", 16_000)] {
        let edges: Vec<(i64, i64)> = (0..n).map(|i| (i, i + 1)).collect();
        ctx.register(name, Relation::edges(&edges)).unwrap();
    }
    let handle =
        rasql_server::serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(5)).unwrap();
    UNCOUNTED.with(|u| u.set(true));
    let mut client = Client::connect(handle.addr()).unwrap();
    // The connection's first statement starts what every later one reuses.
    served(&mut client, "SELECT count(*) FROM small");
    let (small_rows, small, small_bytes) = served(&mut client, "SELECT * FROM small");
    let (large_rows, large, large_bytes) = served(&mut client, "SELECT * FROM large");
    client.close().unwrap();
    assert!(handle.shutdown());
    assert_eq!((small_rows, large_rows), (2_000, 16_000));
    // Measured 119 and 113 allocations, 36 423 and 32 391 bytes (the first
    // scan grows the connection's frame buffer). A copy of the buffer on the
    // way would cost a row each (16 000 more) and 16 bytes a row for the new
    // buffer (256 000 more).
    assert!(
        large <= small + 8,
        "streaming SELECT *: {small} allocations at 2 000 rows, {large} at 16 000"
    );
    assert!(
        large_bytes <= small_bytes + 2_048,
        "streaming SELECT *: {small_bytes} bytes at 2 000 rows, {large_bytes} at 16 000"
    );
}
