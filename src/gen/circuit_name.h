// Built-in circuits by name: the one grammar every front end accepts
// (mft_cli --circuit, the daemon's "circuit" field, the bench binaries).
//
//   c17                the 6-NAND c17 benchmark
//   adder<N>           N-bit ripple-carry adder, 9N NAND gates
//   tiled<L>x<S>x<B>   L-lane, S-stage, B-bit tiled datapath mesh
//                      (gen/tiled.h), 9·L·S·B NAND gates
//   <ISCAS85 name>     c432 ... c7552 analogs (gen/iscas_analog.h)
//
// Each size field is read whole as an unsigned decimal: no sign, no
// spaces, no trailing characters, no overflow, and never 0. The gate count
// a name asks for is computed in 64-bit before anything is allocated, and
// a name above kMaxNamedCircuitGates is refused.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.h"

namespace mft {

/// Largest generated gate count a name may ask for. The largest instance
/// the repository uses is tiled128x96x7, about 774k gates.
constexpr std::int64_t kMaxNamedCircuitGates = 1000000;

/// Builds the circuit `name` names. Throws EngineError(kInvalidInput) for
/// a name outside the grammar above or over the gate bound.
Netlist make_named_circuit(const std::string& name);

}  // namespace mft
