#include "gen/circuit_name.h"

#include <charconv>
#include <string_view>
#include <system_error>
#include <vector>

#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "gen/tiled.h"
#include "util/status.h"
#include "util/str.h"

namespace mft {

namespace {

/// The `count` 'x'-separated size fields of `rest`, each a whole nonzero
/// unsigned decimal. Both sized generators build 9 NAND gates per unit of
/// the fields' product, which must stay within kMaxNamedCircuitGates.
std::vector<int> size_fields(const std::string& name, std::string_view rest,
                             std::size_t count) {
  std::vector<int> out;
  std::int64_t gates = 9;
  while (out.size() < count) {
    const bool last = out.size() + 1 == count;
    const std::size_t x = last ? rest.size() : rest.find('x');
    if (x == std::string_view::npos) break;
    const char* first = rest.data();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, first + x, v);
    if (x == 0 || end != first + x || ec == std::errc::invalid_argument)
      break;
    if (ec == std::errc::result_out_of_range ||
        v > static_cast<std::uint64_t>(kMaxNamedCircuitGates / gates))
      throw EngineError(
          EngineStatus::kInvalidInput,
          strf("circuit '%s' is larger than the %lld-gate limit",
               name.c_str(), static_cast<long long>(kMaxNamedCircuitGates)));
    if (v == 0) break;
    gates *= static_cast<std::int64_t>(v);
    out.push_back(static_cast<int>(v));
    rest.remove_prefix(last ? x : x + 1);
  }
  if (out.size() != count)
    throw EngineError(EngineStatus::kInvalidInput,
                      strf("bad circuit name '%s': expected adder<N> or "
                           "tiled<L>x<S>x<B> with positive decimal sizes",
                           name.c_str()));
  return out;
}

}  // namespace

Netlist make_named_circuit(const std::string& name) {
  const std::string_view n(name);
  if (n == "c17") return make_c17();
  if (starts_with(n, "adder"))
    return make_ripple_adder(size_fields(name, n.substr(5), 1)[0]);
  if (starts_with(n, "tiled")) {
    const std::vector<int> f = size_fields(name, n.substr(5), 3);
    return make_tiled_datapath({f[0], f[1], f[2]});
  }
  try {
    return make_iscas_analog(name);
  } catch (const std::exception& e) {
    throw EngineError(EngineStatus::kInvalidInput,
                      strf("unknown circuit '%s': %s", name.c_str(), e.what()));
  }
}

}  // namespace mft
