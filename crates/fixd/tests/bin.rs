//! The `fixd` binary end to end: flags parsed by [`fixd::cli`], the
//! listening banner, and a graceful drain.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use obs::http::{http_get, http_post};

const SKEWED_BATCH: &str =
    "zip,city,state\n36545,Jaxon,AK\n36545,Jaxon,AK\n36545,Jaxon,AK\n36545,Jaxon,AK\n";

/// The quality flags reach the daemon: a skewed batch seals a window
/// whose repair rate fires the alert, and `--quality-gate` turns
/// readiness red while liveness stays green.
#[test]
fn quality_gate_flags_turn_readyz_red_on_a_skewed_batch() {
    let rules = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/rulesets/hosp_zip.frl"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_fixd"))
        .args(["--rules", rules, "--quality-window", "2"])
        .args(["--quality-alert", "repair_rate>0.5", "--quality-gate"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fixd");
    // Keep the pipe open until the process exits.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let Some(addr) = banner.trim().strip_prefix("fixd listening on http://") else {
        let output = child.wait_with_output().unwrap();
        panic!(
            "unexpected banner {banner:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    let base = format!("http://{addr}");

    let reply = http_post(
        &format!("{base}/repair"),
        "text/csv",
        SKEWED_BATCH.as_bytes(),
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let (status, body) = http_get(&format!("{base}/readyz")).unwrap();
    assert_eq!(status, 503, "gated alert must flip readiness: {body}");
    assert!(body.contains("\"quality_ok\":false"), "{body}");
    assert!(body.contains("\"quality_gate\":true"), "{body}");
    let (status, _) = http_get(&format!("{base}/healthz")).unwrap();
    assert_eq!(status, 200);

    let reply = http_post(&format!("{base}/shutdown"), "text/plain", b"").unwrap();
    assert_eq!(reply.status, 202);
    assert!(child.wait().unwrap().success());
    drop(stdout);
}
