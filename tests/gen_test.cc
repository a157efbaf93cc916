// Tests for the circuit generators: functional correctness of arithmetic
// blocks (exhaustive where tractable), structural sanity everywhere, and
// gate-count fidelity of the ISCAS85 analogs.
#include <gtest/gtest.h>

#include "gen/blocks.h"
#include "gen/circuit_name.h"
#include "gen/iscas_analog.h"
#include "gen/tiled.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "util/status.h"

namespace mft {
namespace {

// Packs an unsigned value into per-bit bools, LSB first.
std::vector<bool> bits_of(unsigned v, int n) {
  std::vector<bool> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = (v >> i) & 1;
  return out;
}

unsigned value_of(const std::vector<bool>& bits, int from, int count) {
  unsigned v = 0;
  for (int i = 0; i < count; ++i)
    if (bits[static_cast<std::size_t>(from + i)]) v |= 1u << i;
  return v;
}

TEST(GenC17, MatchesKnownTruthTable) {
  Netlist nl = make_c17();
  EXPECT_EQ(nl.num_logic_gates(), 6);
  EXPECT_EQ(nl.num_inputs(), 5);
  // Spot values computed from the canonical netlist by hand:
  // all-zero inputs: G10=G11=1, G16=!(0&1)=1, G19=!(1&0)=1, G22=!(1&1)=0? ...
  // rely on structural evaluation vs an independent formula instead.
  for (unsigned m = 0; m < 32; ++m) {
    const bool g1 = m & 1, g2 = m & 2, g3 = m & 4, g6 = m & 8, g7 = m & 16;
    const bool g10 = !(g1 && g3);
    const bool g11 = !(g3 && g6);
    const bool g16 = !(g2 && g11);
    const bool g19 = !(g11 && g7);
    auto out = nl.evaluate({g1, g2, g3, g6, g7});
    EXPECT_EQ(out[0], !(g10 && g16)) << m;
    EXPECT_EQ(out[1], !(g16 && g19)) << m;
  }
}

TEST(GenAdder, FourBitExhaustive) {
  const int n = 4;
  Netlist nl = make_ripple_adder(n);
  ASSERT_EQ(nl.num_inputs(), 2 * n + 1);
  ASSERT_EQ(nl.num_outputs(), n + 1);
  EXPECT_EQ(nl.num_logic_gates(), 9 * n);
  for (unsigned a = 0; a < 16; ++a)
    for (unsigned b = 0; b < 16; ++b)
      for (unsigned cin = 0; cin <= 1; ++cin) {
        std::vector<bool> in = bits_of(a, n);
        const std::vector<bool> bb = bits_of(b, n);
        in.insert(in.end(), bb.begin(), bb.end());
        in.push_back(cin);
        const auto out = nl.evaluate(in);
        const unsigned sum = value_of(out, 0, n);
        const unsigned cout = out[static_cast<std::size_t>(n)];
        EXPECT_EQ(sum + (cout << n), a + b + cin)
            << a << "+" << b << "+" << cin;
      }
}

TEST(GenAdder, LargeAdderIsStructurallySound) {
  Netlist nl = make_ripple_adder(64);
  std::string why;
  EXPECT_TRUE(nl.validate(&why)) << why;
  EXPECT_TRUE(nl.is_primitive_only());
  EXPECT_EQ(nl.num_logic_gates(), 9 * 64);
  EXPECT_GE(nl.depth(), 64);  // carry chain dominates
}

TEST(GenMultiplier, FourByFourExhaustive) {
  const int n = 4;
  Netlist nl = make_array_multiplier(n);
  ASSERT_EQ(nl.num_inputs(), 2 * n);
  ASSERT_EQ(nl.num_outputs(), 2 * n);
  for (unsigned a = 0; a < 16; ++a)
    for (unsigned b = 0; b < 16; ++b) {
      std::vector<bool> in = bits_of(a, n);
      const std::vector<bool> bb = bits_of(b, n);
      in.insert(in.end(), bb.begin(), bb.end());
      const auto out = nl.evaluate(in);
      EXPECT_EQ(value_of(out, 0, 2 * n), a * b) << a << "*" << b;
    }
}

TEST(GenMultiplier, SixteenBitMatchesC6288Character) {
  Netlist nl = make_array_multiplier(16);
  std::string why;
  EXPECT_TRUE(nl.validate(&why)) << why;
  EXPECT_TRUE(nl.is_primitive_only());
  const NetlistStats s = compute_stats(nl);
  // Published c6288: 2406 gates, 32 PI, 32 PO. Our structural analog lands
  // within ~15% (different full-adder mapping).
  EXPECT_EQ(s.num_inputs, 32);
  EXPECT_EQ(s.num_outputs, 32);
  EXPECT_NEAR(s.num_logic_gates, 2406, 2406 * 0.15);
  // Spot-check a multiplication.
  std::vector<bool> in = bits_of(51234, 16);
  const std::vector<bool> bb = bits_of(47711, 16);
  in.insert(in.end(), bb.begin(), bb.end());
  const auto out = nl.evaluate(in);
  const unsigned long long expect = 51234ull * 47711ull;
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(static_cast<bool>(out[static_cast<std::size_t>(i)]),
              static_cast<bool>((expect >> i) & 1))
        << "bit " << i;
}

TEST(GenParitySec, CorrectsSingleBitErrors) {
  // With check bits computed for the data word, every single-bit data error
  // must be corrected at the outputs.
  const int n = 8;
  Netlist nl = make_parity_sec(n);
  int k = 1;
  while ((1 << k) < n + k + 1) ++k;
  ASSERT_EQ(nl.num_inputs(), n + k);
  ASSERT_EQ(nl.num_outputs(), n);

  auto checks_for = [&](unsigned data) {
    std::vector<bool> c(static_cast<std::size_t>(k), false);
    for (int j = 0; j < k; ++j) {
      bool parity = false;
      for (int i = 0; i < n; ++i)
        if (((i + 1) >> j) & 1) parity = parity != (((data >> i) & 1) != 0);
      c[static_cast<std::size_t>(j)] = parity;
    }
    return c;
  };
  for (unsigned data : {0x00u, 0xFFu, 0x5Au, 0x93u}) {
    const std::vector<bool> checks = checks_for(data);
    for (int err = -1; err < n; ++err) {
      unsigned corrupted = data;
      if (err >= 0) corrupted ^= 1u << err;
      std::vector<bool> in = bits_of(corrupted, n);
      in.insert(in.end(), checks.begin(), checks.end());
      const auto out = nl.evaluate(in);
      EXPECT_EQ(value_of(out, 0, n), data)
          << "data " << data << " err bit " << err;
    }
  }
}

TEST(GenMuxTree, SelectsEveryInput) {
  const int s = 3;
  Netlist nl = make_mux_tree(s);
  ASSERT_EQ(nl.num_inputs(), s + (1 << s));
  ASSERT_EQ(nl.num_outputs(), 1);
  for (unsigned sel = 0; sel < (1u << s); ++sel) {
    for (unsigned pattern : {0x0Fu, 0xA5u, 0x01u << sel}) {
      std::vector<bool> in = bits_of(sel, s);
      const std::vector<bool> data = bits_of(pattern, 1 << s);
      in.insert(in.end(), data.begin(), data.end());
      const auto out = nl.evaluate(in);
      EXPECT_EQ(out[0], static_cast<bool>((pattern >> sel) & 1))
          << "sel " << sel << " pattern " << pattern;
    }
  }
}

TEST(GenComparator, FourBitExhaustive) {
  const int n = 4;
  Netlist nl = make_comparator(n);
  ASSERT_EQ(nl.num_outputs(), 2);
  for (unsigned a = 0; a < 16; ++a)
    for (unsigned b = 0; b < 16; ++b) {
      std::vector<bool> in = bits_of(a, n);
      const std::vector<bool> bb = bits_of(b, n);
      in.insert(in.end(), bb.begin(), bb.end());
      const auto out = nl.evaluate(in);
      EXPECT_EQ(out[0], a == b) << a << " vs " << b;
      EXPECT_EQ(out[1], a > b) << a << " vs " << b;
    }
}

TEST(GenAlu, AllFourOpsOnRandomOperands) {
  const int n = 6;
  Netlist nl = make_alu(n);
  // inputs: a, b, op0, op1, cin
  auto run = [&](unsigned a, unsigned b, int op, unsigned cin) {
    std::vector<bool> in = bits_of(a, n);
    const std::vector<bool> bb = bits_of(b, n);
    in.insert(in.end(), bb.begin(), bb.end());
    in.push_back(op & 1);
    in.push_back(op & 2);
    in.push_back(cin);
    return nl.evaluate(in);
  };
  for (unsigned a : {0u, 13u, 63u, 42u})
    for (unsigned b : {0u, 7u, 63u, 21u}) {
      // op 0: add, op 1: and, op 2: or, op 3: xor.
      EXPECT_EQ(value_of(run(a, b, 0, 0), 0, n), (a + b) & 63u);
      EXPECT_EQ(value_of(run(a, b, 0, 1), 0, n), (a + b + 1) & 63u);
      EXPECT_EQ(value_of(run(a, b, 1, 0), 0, n), a & b);
      EXPECT_EQ(value_of(run(a, b, 2, 0), 0, n), a | b);
      EXPECT_EQ(value_of(run(a, b, 3, 0), 0, n), a ^ b);
    }
}

TEST(GenRandomLogic, DeterministicAndValid) {
  RandomLogicParams params;
  params.num_inputs = 10;
  params.num_gates = 150;
  params.seed = 99;
  Netlist a = make_random_logic(params);
  Netlist b = make_random_logic(params);
  EXPECT_EQ(write_bench_string(a), write_bench_string(b));
  EXPECT_EQ(a.num_logic_gates(), 150);
  std::string why;
  EXPECT_TRUE(a.validate(&why)) << why;
}

TEST(IscasAnalog, GateCountsTrackTable1) {
  for (const IscasAnalogSpec& spec : iscas85_specs()) {
    Netlist nl = make_iscas_analog(spec.name);
    std::string why;
    EXPECT_TRUE(nl.validate(&why)) << spec.name << ": " << why;
    const double tolerance = spec.name == "c6288" ? 0.15 : 0.02;
    EXPECT_NEAR(nl.num_logic_gates(), spec.published_gates,
                spec.published_gates * tolerance)
        << spec.name;
  }
}

TEST(IscasAnalog, DeterministicAcrossCalls) {
  Netlist a = make_iscas_analog("c432");
  Netlist b = make_iscas_analog("c432");
  EXPECT_EQ(write_bench_string(a), write_bench_string(b));
}

TEST(IscasAnalog, RejectsUnknownName) {
  EXPECT_THROW(make_iscas_analog("c9999"), CheckError);
}

TEST(IscasAnalog, BenchRoundTrip) {
  Netlist nl = make_iscas_analog("c432");
  Netlist back = read_bench_string(write_bench_string(nl), "c432rt");
  EXPECT_EQ(back.num_logic_gates(), nl.num_logic_gates());
  EXPECT_EQ(back.num_inputs(), nl.num_inputs());
  EXPECT_EQ(back.num_outputs(), nl.num_outputs());
}

TEST(NamedCircuit, EveryAcceptedNameBuildsTheDirectGeneratorsNetlist) {
  std::vector<std::pair<std::string, Netlist>> cases;
  cases.emplace_back("c17", make_c17());
  cases.emplace_back("adder1", make_ripple_adder(1));
  cases.emplace_back("adder32", make_ripple_adder(32));
  cases.emplace_back("adder007", make_ripple_adder(7));
  cases.emplace_back("tiled1x1x1", make_tiled_datapath({1, 1, 1}));
  cases.emplace_back("tiled4x6x2", make_tiled_datapath({4, 6, 2}));
  for (const IscasAnalogSpec& spec : iscas85_specs())
    cases.emplace_back(spec.name, make_iscas_analog(spec.name));
  for (const auto& [name, direct] : cases) {
    const Netlist nl = make_named_circuit(name);
    EXPECT_EQ(nl.name(), direct.name()) << name;
    EXPECT_EQ(write_bench_string(nl), write_bench_string(direct)) << name;
  }
}

TEST(NamedCircuit, RefusesNamesOutsideTheGrammarOrOverTheGateBound) {
  for (const char* name :
       {"adder", "adder0", "adder-3", "adder+3", "adder 3", "adder3x",
        "adder99999999999999999999999", "adder4294967298", "adder111112",
        "tiled1x1", "tiledx1x1", "tiled1x1x1x1", "tiled0x1x1",
        "tiled4294967297x1x1", "tiled1000x1000x1", "c9999", ""}) {
    try {
      make_named_circuit(name);
      ADD_FAILURE() << "accepted '" << name << "'";
    } catch (const EngineError& e) {
      EXPECT_EQ(e.status(), EngineStatus::kInvalidInput) << name;
    }
  }
}

}  // namespace
}  // namespace mft
