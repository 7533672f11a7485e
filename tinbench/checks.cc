#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "policies/tracker.h"
#include "scalable/budget.h"

namespace tinbench {

namespace {

std::string Describe(const char* what, VertexId v, double expected,
                     double actual) {
  char line[256];
  std::snprintf(line, sizeof line, "%s at vertex %u: expected %.17g, got %.17g",
                what, v, expected, actual);
  return line;
}

bool Near(double expected, double actual, double scale) {
  return std::fabs(expected - actual) <= 1e-9 * scale;
}

// Sums a buffer's entries per origin, sorted by origin.
std::vector<ProvPair> Aggregate(std::vector<ProvPair> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const ProvPair& a, const ProvPair& b) {
              return a.origin < b.origin;
            });
  std::vector<ProvPair> out;
  for (const ProvPair& entry : entries) {
    if (!out.empty() && out.back().origin == entry.origin) {
      out.back().quantity += entry.quantity;
    } else {
      out.push_back(entry);
    }
  }
  return out;
}

}  // namespace

Oracle ComputeOracle(const std::vector<Interaction>& log, size_t num_vertices,
                     size_t prefix) {
  Oracle oracle;
  oracle.balance.assign(num_vertices, 0.0);
  oracle.generated.assign(num_vertices, 0.0);
  prefix = std::min(prefix, log.size());
  double quantity_sum = 0.0;
  for (size_t i = 0; i < prefix; ++i) {
    const Interaction& x = log[i];
    const double deficit = x.quantity - oracle.balance[x.src];
    if (deficit > 0.0) {
      oracle.generated[x.src] += deficit;
      oracle.total_generated += deficit;
      oracle.balance[x.src] += deficit;
    }
    if (x.src != x.dst) {
      oracle.balance[x.src] -= x.quantity;
      oracle.balance[x.dst] += x.quantity;
    }
    quantity_sum += x.quantity;
  }
  oracle.mean_quantity =
      prefix == 0 ? 1.0 : quantity_sum / static_cast<double>(prefix);
  return oracle;
}

std::string CheckBalances(const Oracle& oracle, const TotalFn& total) {
  for (size_t v = 0; v < oracle.balance.size(); ++v) {
    const double expected = oracle.balance[v];
    const double actual = total(static_cast<VertexId>(v));
    if (!Near(expected, actual,
              std::max(std::fabs(expected), oracle.mean_quantity))) {
      return Describe("balance", static_cast<VertexId>(v), expected, actual);
    }
  }
  return "";
}

std::string CheckOriginConservation(const Oracle& oracle,
                                    const BufferFn& provenance) {
  const size_t n = oracle.generated.size();
  std::vector<double> held(n, 0.0);
  for (size_t v = 0; v < n; ++v) {
    for (const ProvPair& entry :
         provenance(static_cast<VertexId>(v)).entries) {
      if (entry.origin >= n) {
        return Describe("origin out of range", static_cast<VertexId>(v), 0,
                        entry.origin);
      }
      held[entry.origin] += entry.quantity;
    }
  }
  for (size_t o = 0; o < n; ++o) {
    if (!Near(oracle.generated[o], held[o],
              std::max(oracle.generated[o], oracle.mean_quantity * 1e-3))) {
      return Describe("quantity held of origin", static_cast<VertexId>(o),
                      oracle.generated[o], held[o]);
    }
  }
  return "";
}

std::string CheckResidueConservation(const Oracle& oracle,
                                     const BufferFn& provenance,
                                     double alpha_residue) {
  double held = 0.0;
  for (size_t v = 0; v < oracle.balance.size(); ++v) {
    for (const ProvPair& entry :
         provenance(static_cast<VertexId>(v)).entries) {
      held += entry.quantity;
    }
  }
  if (!Near(oracle.total_generated, held + alpha_residue,
            oracle.total_generated)) {
    return Describe("entries plus alpha residue", 0, oracle.total_generated,
                    held + alpha_residue);
  }
  return "";
}

std::string CheckIdentical(const Buffer& expected, const Buffer& actual) {
  if (expected.total != actual.total) {
    return Describe("buffer total", 0, expected.total, actual.total);
  }
  if (expected.entries.size() != actual.entries.size()) {
    return Describe("entry count", 0,
                    static_cast<double>(expected.entries.size()),
                    static_cast<double>(actual.entries.size()));
  }
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    const ProvPair& a = expected.entries[i];
    const ProvPair& b = actual.entries[i];
    if (a.origin != b.origin || a.quantity != b.quantity) {
      return Describe("entry", a.origin, a.quantity, b.quantity);
    }
  }
  return "";
}

std::string CheckTopOrigins(const Buffer& full, size_t k,
                            const Buffer& actual) {
  Buffer expected = full;
  std::sort(expected.entries.begin(), expected.entries.end(),
            [](const ProvPair& a, const ProvPair& b) {
              if (a.quantity != b.quantity) return a.quantity > b.quantity;
              return a.origin < b.origin;
            });
  if (expected.entries.size() > k) expected.entries.resize(k);
  return CheckIdentical(expected, actual);
}

ReferencePolicy::ReferencePolicy(Rule rule, size_t num_vertices)
    : rule_(rule), buffers_(num_vertices), totals_(num_vertices, 0.0) {}

void ReferencePolicy::Process(const Interaction& x) {
  // Quantity missing at the source is born there, now, as its newest
  // receipt.
  const double deficit = x.quantity - totals_[x.src];
  if (deficit > 0.0) {
    buffers_[x.src].push_back({x.src, x.t, deficit});
    totals_[x.src] += deficit;
  }
  // Generation-order and pro-rata rules leave a self-loop's buffer as it
  // is; receipt order takes the quantity out and receives it back.
  const bool receipt = rule_ == Rule::kLifo || rule_ == Rule::kFifo;
  if (!receipt && (x.src == x.dst || x.quantity == 0.0)) return;
  const std::vector<Tuple> moved = Take(x.src, x.quantity);
  totals_[x.src] -= x.quantity;
  std::vector<Tuple>& dst = buffers_[x.dst];
  if (rule_ == Rule::kProRata) {
    // Pro-rata shares are linear per origin, so one tuple per origin
    // holds everything.
    for (const Tuple& tuple : moved) {
      auto it = std::find_if(dst.begin(), dst.end(), [&](const Tuple& t) {
        return t.origin == tuple.origin;
      });
      if (it == dst.end()) {
        dst.push_back(tuple);
      } else {
        it->quantity += tuple.quantity;
      }
    }
  } else {
    dst.insert(dst.end(), moved.begin(), moved.end());
  }
  totals_[x.dst] += x.quantity;
}

std::vector<ReferencePolicy::Tuple> ReferencePolicy::Take(VertexId v,
                                                          double amount) {
  std::vector<Tuple>& buffer = buffers_[v];
  std::vector<Tuple> moved;
  if (rule_ == Rule::kProRata) {
    // Every origin gives the same share of what it holds.
    const double fraction = std::min(1.0, amount / totals_[v]);
    for (Tuple& tuple : buffer) {
      moved.push_back({tuple.origin, tuple.birth, tuple.quantity * fraction});
      tuple.quantity *= 1.0 - fraction;
    }
    if (fraction >= 1.0) buffer.clear();
    return moved;
  }
  double remaining = amount;
  while (remaining > 0.0 && !buffer.empty()) {
    // Pick the tuple the rule spends first.
    size_t pick = 0;
    switch (rule_) {
      case Rule::kLifo:
        pick = buffer.size() - 1;
        break;
      case Rule::kFifo:
        pick = 0;
        break;
      case Rule::kLrb:
      case Rule::kMrb:
        for (size_t i = 1; i < buffer.size(); ++i) {
          const bool better = rule_ == Rule::kLrb
                                  ? buffer[i].birth < buffer[pick].birth
                                  : buffer[i].birth > buffer[pick].birth;
          if (better) pick = i;
        }
        break;
      case Rule::kProRata:
        break;
    }
    Tuple& tuple = buffer[pick];
    if (tuple.quantity <= remaining) {
      remaining -= tuple.quantity;
      moved.push_back(tuple);
      buffer.erase(buffer.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      tuple.quantity -= remaining;
      moved.push_back({tuple.origin, tuple.birth, remaining});
      remaining = 0.0;
    }
  }
  return moved;
}

std::vector<ProvPair> ReferencePolicy::Holdings(VertexId v) const {
  std::vector<ProvPair> pairs;
  for (const Tuple& tuple : buffers_[v]) {
    pairs.push_back({tuple.origin, tuple.quantity});
  }
  return Aggregate(std::move(pairs));
}

std::string CheckAgainstReference(const ReferencePolicy& reference,
                                  const BufferFn& provenance,
                                  size_t num_vertices) {
  for (size_t v = 0; v < num_vertices; ++v) {
    const VertexId vertex = static_cast<VertexId>(v);
    const std::vector<ProvPair> expected = reference.Holdings(vertex);
    const std::vector<ProvPair> actual =
        Aggregate(provenance(vertex).entries);
    double scale = 1.0;
    for (const ProvPair& entry : expected) scale += std::fabs(entry.quantity);
    // Walk both origin-sorted lists; an origin missing on one side
    // counts as zero there.
    size_t i = 0;
    size_t j = 0;
    while (i < expected.size() || j < actual.size()) {
      VertexId origin = 0;
      double want = 0.0;
      double got = 0.0;
      if (j == actual.size() ||
          (i < expected.size() && expected[i].origin < actual[j].origin)) {
        origin = expected[i].origin;
        want = expected[i++].quantity;
      } else if (i == expected.size() ||
                 actual[j].origin < expected[i].origin) {
        origin = actual[j].origin;
        got = actual[j++].quantity;
      } else {
        origin = expected[i].origin;
        want = expected[i++].quantity;
        got = actual[j++].quantity;
      }
      if (!Near(want, got, scale)) {
        char what[64];
        std::snprintf(what, sizeof what, "quantity of origin %u", origin);
        return Describe(what, vertex, want, got);
      }
    }
  }
  return "";
}

namespace {

// Wraps a provenance function so that the largest entry of one vertex
// reads too high by `delta` of itself (at least `delta` in absolute
// terms).
BufferFn Corrupt(BufferFn inner, VertexId target, double delta) {
  return [inner = std::move(inner), target, delta](VertexId v) {
    Buffer buffer = inner(v);
    if (v == target && !buffer.entries.empty()) {
      ProvPair& largest = *std::max_element(
          buffer.entries.begin(), buffer.entries.end(),
          [](const ProvPair& a, const ProvPair& b) {
            return a.quantity < b.quantity;
          });
      largest.quantity += delta * std::max(largest.quantity, 1.0);
    }
    return buffer;
  };
}

// A vertex whose buffer holds at least two entries.
VertexId BusyVertex(const BufferFn& provenance, size_t num_vertices) {
  for (size_t v = 0; v < num_vertices; ++v) {
    if (provenance(static_cast<VertexId>(v)).entries.size() >= 2) {
      return static_cast<VertexId>(v);
    }
  }
  return 0;
}

BufferFn ProvenanceOf(const tinprov::Tracker& tracker) {
  return [&tracker](VertexId v) { return tracker.Provenance(v); };
}

}  // namespace

std::vector<std::string> RunSelfTest() {
  using tinprov::PolicyKind;
  std::vector<std::string> missed;
  auto expect = [&missed](const char* name, const std::string& clean,
                          const std::string& corrupted) {
    if (!clean.empty() || corrupted.empty()) {
      missed.push_back(std::string(name) +
                       (clean.empty() ? ": corruption not detected"
                                      : ": clean answer rejected: " + clean));
    }
  };

  tinprov::GeneratorConfig config =
      tinprov::PresetConfig(tinprov::DatasetKind::kBitcoin, 0.05);
  config.num_vertices = 200;
  config.num_interactions = 3000;
  auto tin = tinprov::Generate(config);
  if (!tin.ok()) return {"self-test input: " + tin.status().ToString()};
  const std::vector<Interaction>& log = tin->interactions();
  const size_t n = tin->num_vertices();
  const Oracle oracle = ComputeOracle(log, n, log.size());

  const struct {
    PolicyKind kind;
    ReferencePolicy::Rule rule;
    const char* name;
  } policies[] = {
      {PolicyKind::kLifo, ReferencePolicy::Rule::kLifo, "LIFO"},
      {PolicyKind::kFifo, ReferencePolicy::Rule::kFifo, "FIFO"},
      {PolicyKind::kLrb, ReferencePolicy::Rule::kLrb, "LRB"},
      {PolicyKind::kMrb, ReferencePolicy::Rule::kMrb, "MRB"},
      {PolicyKind::kProportionalSparse, ReferencePolicy::Rule::kProRata,
       "Prop-sparse"},
  };
  for (const auto& policy : policies) {
    auto tracker = tinprov::CreateTracker(policy.kind, n);
    ReferencePolicy reference(policy.rule, n);
    for (const Interaction& x : log) {
      if (!tracker->Process(x).ok()) return {"self-test replay failed"};
      reference.Process(x);
    }
    const BufferFn clean = ProvenanceOf(*tracker);
    const VertexId busy = BusyVertex(clean, n);
    const BufferFn corrupted = Corrupt(clean, busy, 0.01);
    const std::string name = policy.name;

    expect((name + " balances").c_str(),
           CheckBalances(oracle, [&](VertexId v) {
             return tracker->BufferTotal(v);
           }),
           CheckBalances(oracle, [&](VertexId v) {
             return tracker->BufferTotal(v) + (v == busy ? 1e-3 : 0.0);
           }));
    expect((name + " origin conservation").c_str(),
           CheckOriginConservation(oracle, clean),
           CheckOriginConservation(oracle, corrupted));
    expect((name + " reference rule").c_str(),
           CheckAgainstReference(reference, clean, n),
           CheckAgainstReference(reference, corrupted, n));

    Buffer full = clean(busy);
    Buffer off_by_one_ulp = full;
    off_by_one_ulp.entries.back().quantity = std::nextafter(
        off_by_one_ulp.entries.back().quantity, 1e300);
    expect((name + " bit-identical").c_str(), CheckIdentical(full, full),
           CheckIdentical(full, off_by_one_ulp));

    Buffer top = full;
    std::sort(top.entries.begin(), top.entries.end(),
              [](const ProvPair& a, const ProvPair& b) {
                if (a.quantity != b.quantity) return a.quantity > b.quantity;
                return a.origin < b.origin;
              });
    top.entries.resize(1);
    Buffer wrong_top = full;
    wrong_top.entries = {top.entries.front()};
    wrong_top.entries.front().origin += 1;
    expect((name + " top origins").c_str(), CheckTopOrigins(full, 1, top),
           CheckTopOrigins(full, 1, wrong_top));
  }

  tinprov::BudgetConfig budget;
  budget.capacity = 8;
  tinprov::BudgetTracker scalable(n, budget);
  for (const Interaction& x : log) {
    if (!scalable.Process(x).ok()) return {"self-test replay failed"};
  }
  const BufferFn clean = ProvenanceOf(scalable);
  expect("Budget residue conservation",
         CheckResidueConservation(oracle, clean, scalable.AlphaResidue()),
         CheckResidueConservation(
             oracle, Corrupt(clean, BusyVertex(clean, n), 0.01),
             scalable.AlphaResidue()));
  return missed;
}

}  // namespace tinbench
