//! Scrape-endpoint robustness: the listener thread must survive —
//! and keep serving valid OpenMetrics — across concurrent scrapers,
//! clients that disconnect mid-response, and garbage request lines.
//! Runs in its own process (integration test), so enabling
//! instrumentation here cannot race the zero-alloc proof.

use spgemm_obs::http::{http_get, ScrapeConfig, ScrapeServer};
use spgemm_obs::openmetrics::{append_histogram, append_type};
use spgemm_obs::Histogram;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

// Tests in one integration binary run concurrently but share the
// global registry and enable flag; serialize them.
static LOCK: Mutex<()> = Mutex::new(());

/// Take [`LOCK`], poisoned or not: it guards no data, so a test that
/// failed while holding it must not fail the other three with it.
fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

static CTR: spgemm_obs::CounterSite = spgemm_obs::CounterSite::new("scrape", "scrape.ctr");
static GAUGE: spgemm_obs::GaugeSite = spgemm_obs::GaugeSite::new("scrape", "scrape.gauge");

fn populate() {
    spgemm_obs::enable_with_capacity(0);
    CTR.add(7);
    GAUGE.set(-4);
    spgemm_obs::disable();
}

#[test]
fn concurrent_scrapers_get_valid_pages() {
    let _l = serial();
    populate();
    // Histograms are subsystem-owned: the family reaches the page
    // through the exposition hook, as serve's latency families do.
    let hist = Histogram::new();
    for v in [3u64, 900, 40_000] {
        hist.record(v);
    }
    let server = ScrapeServer::start_with(
        ScrapeConfig::default(),
        Some(Box::new(move |out: &mut String| {
            append_type(out, "scrape_hist", "histogram");
            append_histogram(out, "scrape_hist", &[("src", "test")], &hist.snapshot());
        })),
    )
    .expect("bind");
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..25 {
                    let (status, body) = http_get(addr, "/metrics").expect("scrape");
                    assert_eq!(status, 200);
                    spgemm_obs::openmetrics::validate(&body)
                        .unwrap_or_else(|e| panic!("{e}\n---\n{body}"));
                    assert!(body.contains("spgemm_scrape_ctr_total"), "{body}");
                    assert!(
                        body.contains("spgemm_scrape_gauge{cat=\"scrape\"} -4"),
                        "{body}"
                    );
                    assert!(body.contains("scrape_hist_bucket{src=\"test\""), "{body}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("scraper");
    }
    // Exactly: the server counts a 200 before writing it, so every
    // scraper that got its page is already counted. (It used to count
    // after the write, and this read could beat the 100th increment —
    // the "served 99" transient.)
    assert_eq!(server.served(), 100);
    spgemm_obs::reset();
}

#[test]
fn extra_exposition_is_appended_before_eof() {
    let _l = serial();
    populate();
    let server = ScrapeServer::start_with(
        ScrapeConfig::default(),
        Some(Box::new(|out: &mut String| {
            spgemm_obs::openmetrics::append_type(out, "extra_fam", "counter");
            spgemm_obs::openmetrics::append_counter(out, "extra_fam", &[("src", "test")], 11);
        })),
    )
    .expect("bind");
    let (status, body) = http_get(server.addr(), "/metrics").expect("scrape");
    assert_eq!(status, 200);
    spgemm_obs::openmetrics::validate(&body).unwrap_or_else(|e| panic!("{e}\n---\n{body}"));
    assert!(body.contains("extra_fam_total{src=\"test\"} 11"), "{body}");
    assert!(body.ends_with("# EOF\n"), "{body}");
    spgemm_obs::reset();
}

#[test]
fn mid_response_disconnects_do_not_wedge_the_endpoint() {
    let _l = serial();
    populate();
    let server = ScrapeServer::start(ScrapeConfig::default()).expect("bind");
    let addr = server.addr();
    for _ in 0..8 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: obs\r\n\r\n")
            .expect("request");
        // Read a prefix of the response, then slam the connection shut.
        let mut prefix = [0u8; 16];
        let _ = s.read(&mut prefix);
        drop(s);
    }
    // A connection that opens and says nothing costs one read error.
    drop(TcpStream::connect(addr).expect("connect"));
    // The endpoint must still answer cleanly afterwards.
    let (status, body) = http_get(addr, "/metrics").expect("post-abuse scrape");
    assert_eq!(status, 200);
    spgemm_obs::openmetrics::validate(&body).unwrap_or_else(|e| panic!("{e}\n---\n{body}"));
    spgemm_obs::reset();
}

#[test]
fn garbage_and_unknown_requests_get_error_statuses() {
    let _l = serial();
    populate();
    let server = ScrapeServer::start(ScrapeConfig::default()).expect("bind");
    let addr = server.addr();

    // Not HTTP at all: the handler must answer 400, not hang or die.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"\x00\x01garbage\r\n\r\n").expect("garbage");
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw:?}");
    drop(s);

    let (status, _) = http_get(addr, "/nope").expect("404 path");
    assert_eq!(status, 404);
    // http_get only speaks GET; POST by hand for the 405.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"POST /metrics HTTP/1.1\r\nHost: obs\r\n\r\n")
        .expect("post");
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw:?}");

    let (status, body) = http_get(addr, "/json").expect("json");
    assert_eq!(status, 200);
    assert!(body.trim_start().starts_with('{'), "{body}");
    assert!(server.rejected() >= 3, "rejected {}", server.rejected());
    // Valid service continues after every abuse case.
    let (status, body) = http_get(addr, "/metrics").expect("final scrape");
    assert_eq!(status, 200);
    spgemm_obs::openmetrics::validate(&body).unwrap_or_else(|e| panic!("{e}\n---\n{body}"));
    spgemm_obs::reset();
}
