//! Scrape-endpoint smoke test: bind an ephemeral port, run a sampled
//! serving workload, and GET `/metrics` **while requests are in flight**
//! — the curl-equivalent check from ISSUE 9's acceptance criteria. The
//! scrape must always return valid Prometheus exposition text, because
//! the endpoint renders from snapshots rather than live engine state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lm4db_serve::{Engine, EngineOptions, Request};
use lm4db_tokenize::{BOS, EOS};
use lm4db_transformer::{GptModel, ModelConfig};

#[test]
fn metrics_scrape_is_valid_mid_soak() {
    lm4db_obs::set_enabled(true);
    lm4db_obs::reset();
    lm4db_obs::series_reset();

    let server = lm4db_obs::serve_metrics("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let done = Arc::new(AtomicBool::new(false));
    let scraped = Arc::new(AtomicBool::new(false));
    let workload_done = Arc::clone(&done);
    let workload_scraped = Arc::clone(&scraped);
    let workload = std::thread::spawn(move || {
        let mut m = GptModel::new(ModelConfig::test(), 7);
        let mut opt = m.optimizer(3e-3);
        let batch = vec![
            vec![BOS, 10, 11, 12, 13, 14, EOS],
            vec![BOS, 20, 21, 22, 23, 24, EOS],
        ];
        for _ in 0..10 {
            m.train_step(&batch, &mut opt);
        }
        let mut engine = Engine::with_options(
            &m,
            EngineOptions {
                max_batch: 2,
                sample_steps: 2,
                ..Default::default()
            },
        );
        // A rolling stream: keep submitting so the engine stays busy
        // until the main thread has landed at least one scrape — that
        // guarantees a scrape genuinely overlaps in-flight work even on
        // a fast release build (bounded so a broken scraper can't hang
        // the test; the mid-flight assert below then fails normally).
        let mut round = 0usize;
        while round < 30 || (!workload_scraped.load(Ordering::Relaxed) && round < 50_000) {
            let p = if round.is_multiple_of(2) {
                vec![BOS, 10, 11]
            } else {
                vec![BOS, 20]
            };
            engine.submit(Request::greedy(p, 6, EOS));
            engine.step();
            round += 1;
        }
        engine.run();
        workload_done.store(true, Ordering::Relaxed);
        engine.stats().completed
    });

    // Scrape repeatedly while the soak is in flight; every response must
    // be complete, valid exposition text.
    let mut mid_flight_scrapes = 0u32;
    let mut last_body = String::new();
    for _ in 0..50 {
        let (status, body) = lm4db_obs::endpoint::http_get(addr, "/metrics").expect("GET /metrics");
        assert!(status.contains("200 OK"), "bad status: {status}");
        lm4db_obs::validate_exposition(&body)
            .unwrap_or_else(|e| panic!("invalid exposition mid-soak: {e}"));
        if !done.load(Ordering::Relaxed) {
            mid_flight_scrapes += 1;
        }
        scraped.store(true, Ordering::Relaxed);
        last_body = body;
        if done.load(Ordering::Relaxed) && mid_flight_scrapes > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let completed = workload.join().expect("workload thread");
    assert!(completed > 0, "workload must complete requests");
    assert!(
        mid_flight_scrapes > 0,
        "at least one scrape must land while the soak is in flight"
    );

    // A final scrape sees the finished workload's counters and series.
    let (status, body) = lm4db_obs::endpoint::http_get(addr, "/metrics").expect("final GET");
    assert!(status.contains("200 OK"));
    lm4db_obs::validate_exposition(&body).expect("final scrape valid");
    assert!(
        body.contains("lm4db_serve_completed"),
        "scrape must carry serve counters:\n{body}"
    );
    assert!(
        body.contains("lm4db_ts_serve_active"),
        "scrape must carry sampled series:\n{body}"
    );
    let _ = last_body;

    drop(server);
    lm4db_obs::set_enabled(false);
}
