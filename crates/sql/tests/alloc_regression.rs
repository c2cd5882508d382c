//! Regression test: a point lookup allocates O(1), not O(table).
//!
//! `execute` used to start with `base.rows.clone()` — a `Vec` per row plus
//! a `String` per text cell, 12 025 allocations to return one row of a
//! 4000-row table. It now scans `&table.rows` in place and clones only what
//! reaches the `ResultSet`, so the count must not depend on the table's
//! size at all; a counting global allocator pins that, and a small ceiling.
//!
//! This file intentionally holds a single test: the allocator counter is
//! process-global, and a lone test in its own integration binary is the
//! only way to keep the measurement clean.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lm4db_sql::{execute, parse, Catalog, DataType, Schema, Table, Value};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The benchmark's `orders` table, `n` rows of it.
fn orders(n: i64) -> Catalog {
    let mut t = Table::new(
        "orders",
        Schema::new(vec![
            ("id", DataType::Int),
            ("customer_id", DataType::Int),
            ("amount", DataType::Int),
            ("status", DataType::Text),
            ("day", DataType::Int),
        ]),
    );
    for id in 0..n {
        let status = ["open", "paid", "shipped", "returned"][(id % 4) as usize];
        t.insert(vec![
            Value::Int(id),
            Value::Int(id % 60),
            Value::Int(1 + (id * 37) % 1000),
            Value::Str(status.into()),
            Value::Int(id % 365),
        ])
        .expect("row fits schema");
    }
    let mut catalog = Catalog::new();
    catalog.register(t);
    catalog
}

#[test]
fn point_lookup_allocations_do_not_grow_with_the_table() {
    let count = |rows: i64| {
        let catalog = orders(rows);
        let q = parse("SELECT id, amount, status FROM orders WHERE id = 271").expect("parses");
        let before = ALLOCS.load(Ordering::Relaxed);
        let rs = execute(&q, &catalog).expect("runs");
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(rs.rows.len(), 1);
        allocs
    };
    let (small, large) = (count(400), count(4000));
    assert_eq!(
        small, large,
        "a point lookup allocated {small} times on 400 rows and {large} on 4000"
    );
    assert!(large <= 64, "a point lookup allocated {large} times");
}
