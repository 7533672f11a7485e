// Output checks made apart from the program.
//
// Every check returns an empty string when the answers agree and a
// description of the first disagreement otherwise. The benchmark fails the
// run on any non-empty result; RunSelfTest() corrupts one answer per
// check and asserts that the check then reports it.
#ifndef TINBENCH_CHECKS_H_
#define TINBENCH_CHECKS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/types.h"

namespace tinbench {

using tinprov::Buffer;
using tinprov::Interaction;
using tinprov::ProvPair;
using tinprov::VertexId;

using BufferFn = std::function<Buffer(VertexId)>;
using TotalFn = std::function<double(VertexId)>;

// Balances and generated quantities recomputed by a scalar loop: when a
// source holds less than it sends, the difference is generated there.
struct Oracle {
  std::vector<double> balance;    // per vertex
  std::vector<double> generated;  // per origin
  double total_generated = 0.0;
  double mean_quantity = 0.0;
};

Oracle ComputeOracle(const std::vector<Interaction>& log, size_t num_vertices,
                     size_t prefix);

// BufferTotal(v) of a tracker against the recomputed balance.
std::string CheckBalances(const Oracle& oracle, const TotalFn& total);

// Per-origin conservation: entries of origin o summed over all vertices
// equal what o generated (LIFO, FIFO, LRB, MRB, Prop-sparse).
std::string CheckOriginConservation(const Oracle& oracle,
                                    const BufferFn& provenance);

// Scalable trackers: all entries plus the alpha residue equal the total
// generated.
std::string CheckResidueConservation(const Oracle& oracle,
                                     const BufferFn& provenance,
                                     double alpha_residue);

// Bit-identical buffers: same total, same entries in the same order.
std::string CheckIdentical(const Buffer& expected, const Buffer& actual);

// A TopOrigins(v, k) answer against the full buffer it was cut from:
// the k largest quantities, ties broken by the smaller origin.
std::string CheckTopOrigins(const Buffer& full, size_t k,
                            const Buffer& actual);

// Small reference implementations of the paper's selection rules. They
// keep every receipt as its own tuple and aggregate only for
// comparison, so they share no code or data layout with the program.
class ReferencePolicy {
 public:
  enum class Rule { kLifo, kFifo, kLrb, kMrb, kProRata };

  ReferencePolicy(Rule rule, size_t num_vertices);

  void Process(const Interaction& interaction);

  // Quantity per origin held at v, sorted by origin.
  std::vector<ProvPair> Holdings(VertexId v) const;

 private:
  struct Tuple {
    VertexId origin;
    double birth;
    double quantity;
  };
  std::vector<Tuple> Take(VertexId v, double amount);

  Rule rule_;
  std::vector<std::vector<Tuple>> buffers_;  // receipt order, oldest first
  std::vector<double> totals_;
};

// The program's buffers against a reference policy over the same
// prefix, origin by origin, within a relative tolerance.
std::string CheckAgainstReference(const ReferencePolicy& reference,
                                  const BufferFn& provenance,
                                  size_t num_vertices);

// Corrupts one answer for every check above and returns the names of
// the checks that did not notice (empty when all of them did).
std::vector<std::string> RunSelfTest();

}  // namespace tinbench

#endif  // TINBENCH_CHECKS_H_
