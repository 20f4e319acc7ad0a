//! A reader and writer for an OpenQASM 2.0 subset.
//!
//! The subset covers everything the AutoQ benchmarks need: a single quantum
//! register, the gate vocabulary of [`Gate`], and pass-through handling of
//! `include`, `creg`, `barrier` and `measure` statements (the latter two are
//! ignored, as the analysis is performed on the unitary part of a circuit).

use std::fmt;

use crate::{Circuit, Gate};

/// Error raised while parsing an OpenQASM program.
///
/// ```
/// use autoq_circuit::qasm::parse_qasm;
/// assert!(parse_qasm("qreg q[1]; bogus q[0];").is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QASM parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for QasmError {}

/// Serialises a circuit as an OpenQASM 2.0 program.
///
/// ```
/// use autoq_circuit::{Circuit, Gate};
/// let circuit = Circuit::from_gates(2, [Gate::H(0), Gate::Cnot { control: 0, target: 1 }]).unwrap();
/// let qasm = autoq_circuit::qasm::write_qasm(&circuit);
/// assert!(qasm.contains("qreg q[2];"));
/// assert!(qasm.contains("cx q[0],q[1];"));
/// ```
pub fn write_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    for gate in circuit.gates() {
        let qubits: Vec<String> = gate.qubits().iter().map(|q| format!("q[{q}]")).collect();
        out.push_str(&format!("{} {};\n", gate.name(), qubits.join(",")));
    }
    out
}

/// Parses an OpenQASM 2.0 subset program into a [`Circuit`].
///
/// # Errors
///
/// Returns a [`QasmError`] describing the first offending statement.
///
/// ```
/// use autoq_circuit::qasm::parse_qasm;
/// let circuit = parse_qasm(
///     "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\nccx q[0],q[1],q[2];\n",
/// )
/// .unwrap();
/// assert_eq!(circuit.num_qubits(), 3);
/// assert_eq!(circuit.gate_count(), 2);
/// ```
pub fn parse_qasm(source: &str) -> Result<Circuit, QasmError> {
    let mut num_qubits: Option<u32> = None;
    let mut register_name = String::from("q");
    let mut gates: Vec<Gate> = Vec::new();

    for (line_index, raw_line) in source.lines().enumerate() {
        let line_no = line_index + 1;
        let line = strip_comment(raw_line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        for statement in line.split(';') {
            let statement = statement.trim();
            if statement.is_empty() {
                continue;
            }
            parse_statement(
                statement,
                line_no,
                &mut num_qubits,
                &mut register_name,
                &mut gates,
            )?;
        }
    }

    let width = num_qubits.ok_or_else(|| QasmError {
        line: 0,
        message: "no qreg declaration found".to_string(),
    })?;
    Circuit::from_gates(width, gates).map_err(|e| QasmError {
        line: 0,
        message: e.to_string(),
    })
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn parse_statement(
    statement: &str,
    line: usize,
    num_qubits: &mut Option<u32>,
    register_name: &mut String,
    gates: &mut Vec<Gate>,
) -> Result<(), QasmError> {
    let err = |message: String| QasmError { line, message };
    let lower = statement.to_ascii_lowercase();
    if lower.starts_with("openqasm")
        || lower.starts_with("include")
        || lower.starts_with("creg")
        || lower.starts_with("barrier")
        || lower.starts_with("measure")
    {
        return Ok(());
    }
    if let Some(rest) = lower.strip_prefix("qreg") {
        let rest = rest.trim();
        let open = rest
            .find('[')
            .ok_or_else(|| err("malformed qreg declaration".into()))?;
        let close = rest
            .find(']')
            .filter(|&close| close > open)
            .ok_or_else(|| err("malformed qreg declaration".into()))?;
        let name = rest[..open].trim().to_string();
        let size: u32 = rest[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| err("malformed register size".into()))?;
        if num_qubits.is_some() {
            return Err(err("multiple qreg declarations are not supported".into()));
        }
        *register_name = name;
        *num_qubits = Some(size);
        return Ok(());
    }

    // gate application: "<name>(params)? q[i], q[j], ..."
    let (head, args) = match statement.find(char::is_whitespace) {
        Some(pos) => (&statement[..pos], &statement[pos..]),
        None => return Err(err(format!("malformed statement {statement:?}"))),
    };
    let head = head.to_ascii_lowercase();
    let (name, params) = match head.find('(') {
        Some(pos) => {
            let close = head
                .rfind(')')
                .filter(|&close| close > pos)
                .ok_or_else(|| err("unbalanced parameter list".into()))?;
            (
                head[..pos].to_string(),
                Some(head[pos + 1..close].to_string()),
            )
        }
        None => (head.clone(), None),
    };
    let qubits = parse_qubit_list(args, register_name, line)?;
    // Checked here so the error names the statement's line; a gate before
    // the `qreg` declaration is left to `Circuit::from_gates`.
    if let (Some(width), Some(&qubit)) = (*num_qubits, qubits.iter().max()) {
        if qubit >= width {
            return Err(err(format!(
                "qubit {qubit} out of range for a {width}-qubit register"
            )));
        }
    }
    let one = |index: usize| -> Result<u32, QasmError> {
        qubits.get(index).copied().ok_or_else(|| QasmError {
            line,
            message: format!("gate {name} expects more qubit arguments"),
        })
    };
    let expect_len = |expected: usize| -> Result<(), QasmError> {
        if qubits.len() != expected {
            Err(QasmError {
                line,
                message: format!(
                    "gate {name} expects {expected} qubits, got {}",
                    qubits.len()
                ),
            })
        } else {
            Ok(())
        }
    };
    let gate = match name.as_str() {
        "x" => {
            expect_len(1)?;
            Gate::X(one(0)?)
        }
        "y" => {
            expect_len(1)?;
            Gate::Y(one(0)?)
        }
        "z" => {
            expect_len(1)?;
            Gate::Z(one(0)?)
        }
        "h" => {
            expect_len(1)?;
            Gate::H(one(0)?)
        }
        "s" => {
            expect_len(1)?;
            Gate::S(one(0)?)
        }
        "sdg" => {
            expect_len(1)?;
            Gate::Sdg(one(0)?)
        }
        "t" => {
            expect_len(1)?;
            Gate::T(one(0)?)
        }
        "tdg" => {
            expect_len(1)?;
            Gate::Tdg(one(0)?)
        }
        "rx" => {
            expect_len(1)?;
            check_half_pi_parameter(&params, line)?;
            Gate::RxPi2(one(0)?)
        }
        "ry" => {
            expect_len(1)?;
            check_half_pi_parameter(&params, line)?;
            Gate::RyPi2(one(0)?)
        }
        "cx" | "cnot" => {
            expect_len(2)?;
            Gate::Cnot {
                control: one(0)?,
                target: one(1)?,
            }
        }
        "cz" => {
            expect_len(2)?;
            Gate::Cz {
                control: one(0)?,
                target: one(1)?,
            }
        }
        "swap" => {
            expect_len(2)?;
            Gate::Swap(one(0)?, one(1)?)
        }
        "ccx" | "toffoli" => {
            expect_len(3)?;
            Gate::Toffoli {
                controls: [one(0)?, one(1)?],
                target: one(2)?,
            }
        }
        "cswap" | "fredkin" => {
            expect_len(3)?;
            Gate::Fredkin {
                control: one(0)?,
                targets: [one(1)?, one(2)?],
            }
        }
        other => return Err(err(format!("unsupported gate {other:?}"))),
    };
    gates.push(gate);
    Ok(())
}

fn check_half_pi_parameter(params: &Option<String>, line: usize) -> Result<(), QasmError> {
    let value = params.as_deref().unwrap_or("").replace(' ', "");
    if value == "pi/2" || value == "0.5*pi" || value == "1.5707963267948966" {
        Ok(())
    } else {
        Err(QasmError {
            line,
            message: format!("only rotations by pi/2 are supported, got ({value})"),
        })
    }
}

fn parse_qubit_list(args: &str, register: &str, line: usize) -> Result<Vec<u32>, QasmError> {
    let mut qubits = Vec::new();
    for part in args.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let open = part.find('[').ok_or_else(|| QasmError {
            line,
            message: format!("expected indexed qubit, got {part:?}"),
        })?;
        let close = part
            .find(']')
            .filter(|&close| close > open)
            .ok_or_else(|| QasmError {
                line,
                message: format!("expected indexed qubit, got {part:?}"),
            })?;
        let name = part[..open].trim();
        if name != register {
            return Err(QasmError {
                line,
                message: format!("unknown register {name:?}"),
            });
        }
        let index: u32 = part[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| QasmError {
                line,
                message: format!("malformed qubit index in {part:?}"),
            })?;
        qubits.push(index);
    }
    Ok(qubits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_qasm() {
        let circuit = Circuit::from_gates(
            4,
            [
                Gate::H(0),
                Gate::T(1),
                Gate::Tdg(2),
                Gate::Sdg(3),
                Gate::Cnot {
                    control: 0,
                    target: 1,
                },
                Gate::Cz {
                    control: 2,
                    target: 3,
                },
                Gate::Toffoli {
                    controls: [0, 1],
                    target: 2,
                },
                Gate::Swap(1, 3),
                Gate::Fredkin {
                    control: 0,
                    targets: [2, 3],
                },
                Gate::RxPi2(0),
                Gate::RyPi2(1),
            ],
        )
        .unwrap();
        let qasm = write_qasm(&circuit);
        let parsed = parse_qasm(&qasm).unwrap();
        assert_eq!(parsed, circuit);
    }

    #[test]
    fn parser_ignores_comments_measures_and_barriers() {
        let source = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            creg c[2];
            h q[0];      // create superposition
            barrier q[0], q[1];
            cx q[0], q[1];
            measure q[0] -> c[0];
        "#;
        let circuit = parse_qasm(source).unwrap();
        assert_eq!(circuit.gate_count(), 2);
        assert_eq!(circuit.num_qubits(), 2);
    }

    #[test]
    fn parser_accepts_custom_register_names() {
        let circuit = parse_qasm("qreg reg[2]; x reg[1]; cx reg[0],reg[1];").unwrap();
        assert_eq!(
            circuit.gates(),
            &[
                Gate::X(1),
                Gate::Cnot {
                    control: 0,
                    target: 1
                }
            ]
        );
    }

    #[test]
    fn parser_reports_useful_errors() {
        assert!(parse_qasm("x q[0];").is_err()); // no qreg
        let err = parse_qasm("qreg q[1];\nfrobnicate q[0];").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unsupported gate"));
        assert!(parse_qasm("qreg q[1]; rx(pi/4) q[0];").is_err());
        assert!(parse_qasm("qreg q[1]; x r[0];").is_err());
        assert!(parse_qasm("qreg q[1]; cx q[0];").is_err());
        assert!(parse_qasm("qreg q[2]; qreg p[2];").is_err());
        assert!(parse_qasm("qreg q[2]; x q[7];").is_err());
    }

    #[test]
    fn rotation_parameter_variants_are_accepted() {
        for param in ["pi/2", "0.5*pi", "1.5707963267948966"] {
            let source = format!("qreg q[1]; rx({param}) q[0];");
            assert_eq!(parse_qasm(&source).unwrap().gates(), &[Gate::RxPi2(0)]);
        }
    }
}
