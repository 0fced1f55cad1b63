//! Process-level test: deeply nested Verilog — a long assign chain,
//! deep parentheses — is parsed by `mighty stats` without exhausting the
//! main thread's stack, and malformed deep input is a located exit-3
//! error rather than an abort.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `text` to a file of this test process and runs `mighty stats`
/// on it.
fn stats(name: &str, text: &str) -> Output {
    let path: PathBuf =
        std::env::temp_dir().join(format!("mighty_deep_{}_{name}.v", std::process::id()));
    std::fs::write(&path, text).expect("write the netlist");
    let out = Command::new(env!("CARGO_BIN_EXE_mighty"))
        .arg("stats")
        .arg(&path)
        .output()
        .expect("run mighty");
    let _ = std::fs::remove_file(&path);
    out
}

fn nested(n: usize, core: &str, close: &str) -> String {
    format!(
        "module deep(a, b, y); input a, b; output y;\nassign y = {}{core}{};\nendmodule\n",
        "(".repeat(n),
        close.repeat(n)
    )
}

#[test]
fn deep_inputs_parse_or_fail_cleanly() {
    let mut chain = String::from("module chain(w0, y); input w0; output y; assign y = w20000;\n");
    for i in (1..=20_000).rev() {
        chain.push_str(&format!("wire w{i}; assign w{i} = ~w{} & w0;\n", i - 1));
    }
    chain.push_str("endmodule\n");
    let out = stats("chain", &chain);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("size=20000"),
        "{out:?}"
    );

    let out = stats("parens", &nested(100_000, "a ^ b", ")"));
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let out = stats("unbalanced", &nested(100_000, "a ^ b", ""));
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2, column 100017"), "{err}");
}
