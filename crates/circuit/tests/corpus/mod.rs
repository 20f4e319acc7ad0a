//! The golden QASM corpus shared by the round-trip tests (`qasm_corpus`)
//! and the parser fuzz test (`qasm_fuzz`), which mutates these sources.

use autoq_circuit::{Circuit, Gate};

/// Hand-written sources paired with the circuit they must parse to.
pub fn golden_corpus() -> Vec<(&'static str, Circuit)> {
    vec![
        (
            // Dialect variation: no include, aliased gate names, multiple
            // statements per line, comments, odd whitespace, measure/barrier
            // noise.
            "OPENQASM 2.0;\n\
             qreg r[3];\n\
             creg c[3];\n\
             h r[0]; cnot r[0], r[1]; // entangle\n\
             toffoli   r[0] , r[1] , r[2] ;\n\
             barrier r;\n\
             fredkin r[0], r[1], r[2];\n\
             measure r[0] -> c[0];\n",
            Circuit::from_gates(
                3,
                [
                    Gate::H(0),
                    Gate::Cnot {
                        control: 0,
                        target: 1,
                    },
                    Gate::Toffoli {
                        controls: [0, 1],
                        target: 2,
                    },
                    Gate::Fredkin {
                        control: 0,
                        targets: [1, 2],
                    },
                ],
            )
            .unwrap(),
        ),
        (
            // Every single-qubit gate plus parameterised rotations in all
            // three accepted spellings of pi/2.
            "OPENQASM 2.0;\n\
             include \"qelib1.inc\";\n\
             qreg q[2];\n\
             x q[0];\ny q[0];\nz q[0];\nh q[1];\ns q[1];\nsdg q[1];\n\
             t q[0];\ntdg q[0];\n\
             rx(pi/2) q[0];\n\
             ry(0.5*pi) q[1];\n\
             rx(1.5707963267948966) q[1];\n",
            Circuit::from_gates(
                2,
                [
                    Gate::X(0),
                    Gate::Y(0),
                    Gate::Z(0),
                    Gate::H(1),
                    Gate::S(1),
                    Gate::Sdg(1),
                    Gate::T(0),
                    Gate::Tdg(0),
                    Gate::RxPi2(0),
                    Gate::RyPi2(1),
                    Gate::RxPi2(1),
                ],
            )
            .unwrap(),
        ),
        (
            // Two-qubit gates with both cx/cnot spellings and swap.
            "OPENQASM 2.0;\nqreg q[4];\ncx q[0], q[1];\ncnot q[2], q[3];\ncz q[1], q[2];\nswap q[0], q[3];\n",
            Circuit::from_gates(
                4,
                [
                    Gate::Cnot {
                        control: 0,
                        target: 1,
                    },
                    Gate::Cnot {
                        control: 2,
                        target: 3,
                    },
                    Gate::Cz {
                        control: 1,
                        target: 2,
                    },
                    Gate::Swap(0, 3),
                ],
            )
            .unwrap(),
        ),
    ]
}
