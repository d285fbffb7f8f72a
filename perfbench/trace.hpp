// In-memory span recorder for the traced campaign rebuild.
//
// Spans are opened and closed from the benchmark's own code around calls
// into the program's layers; the program itself is not instrumented.
// Each span records its name, start, end, parent span and run id. A
// thread keeps a stack of open spans, so a span's parent is the
// innermost span open on the same thread. Work handed to the thread
// pool runs on other threads, so a loop body re-establishes its parent
// with a ParentScope before opening spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spice/transient.hpp"

namespace perfbench {

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = no parent (a root span).
  std::uint32_t run = 0;
  const char* name = "";  ///< Static string; the layer the span times.
  double start = 0.0;     ///< Seconds since the tracer epoch.
  double end = 0.0;
  /// Transient spans only: the solver counters and the phase split
  /// spice::transient measured inside the span.
  bool has_tran = false;
  bool nonconverged = false;
  std::size_t steps = 0;
  dot::spice::TranStats tran;

  double duration() const { return end - start; }
};

/// Opens a span on construction and records it on destruction.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return record_.id; }
  /// Attaches a finished transient's counters and phase split.
  void set_tran(const dot::spice::TranStats& stats, std::size_t steps);
  /// Marks a transient that threw util::ConvergenceError.
  void set_nonconverged();

 private:
  SpanRecord record_;
};

/// Makes `parent` the innermost open span of this thread for the
/// lifetime of the scope (used at the top of thread-pool loop bodies).
class ParentScope {
 public:
  explicit ParentScope(std::uint32_t parent);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;
};

/// Sets the run id stamped on spans opened from now on.
void set_trace_run(std::uint32_t run);

/// All spans recorded so far, in closing order.
std::vector<SpanRecord> recorded_spans();

/// Writes the spans as one JSON object per line.
void write_spans(const std::vector<SpanRecord>& spans, const std::string& path);

/// Wall time of `root` split by layer. A span's self time is its
/// duration minus the part of it its children cover; a transient span's
/// measured phases count as children. Where children overlap (they ran
/// on several threads), the covered wall time is shared among them in
/// proportion to their durations, and that share is split the same way
/// inside each child. The values therefore sum to the root's duration.
std::map<std::string, double> attribute_wall(
    const std::vector<SpanRecord>& spans, std::uint32_t root);

}  // namespace perfbench
