#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_seconds() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::atomic<std::uint32_t> next_id{1};
std::atomic<std::uint32_t> current_run{0};

std::mutex spans_mutex;
std::vector<SpanRecord> spans;  // guarded by spans_mutex

thread_local std::vector<std::uint32_t> open_stack;

}  // namespace

Span::Span(const char* name) {
  record_.id = next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = open_stack.empty() ? 0 : open_stack.back();
  record_.run = current_run.load(std::memory_order_relaxed);
  record_.name = name;
  open_stack.push_back(record_.id);
  record_.start = now_seconds();
}

Span::~Span() {
  record_.end = now_seconds();
  open_stack.pop_back();
  std::lock_guard<std::mutex> lock(spans_mutex);
  spans.push_back(record_);
}

void Span::set_tran(const dot::spice::TranStats& stats, std::size_t steps) {
  record_.has_tran = true;
  record_.tran = stats;
  record_.steps = steps;
}

void Span::set_nonconverged() {
  record_.has_tran = true;
  record_.nonconverged = true;
}

ParentScope::ParentScope(std::uint32_t parent) { open_stack.push_back(parent); }

ParentScope::~ParentScope() { open_stack.pop_back(); }

void set_trace_run(std::uint32_t run) {
  current_run.store(run, std::memory_order_relaxed);
}

std::vector<SpanRecord> recorded_spans() {
  std::lock_guard<std::mutex> lock(spans_mutex);
  return spans;
}

void write_spans(const std::vector<SpanRecord>& records,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  for (const SpanRecord& s : records) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"run\":%u,\"name\":\"%s\","
                 "\"start\":%.9f,\"end\":%.9f",
                 s.id, s.parent, s.run, s.name, s.start, s.end);
    if (s.has_tran)
      std::fprintf(f,
                   ",\"nonconverged\":%s,\"steps\":%zu,\"newton\":%zu,"
                   "\"factorizations\":%zu,\"assembly\":%.9f,"
                   "\"factor\":%.9f,\"solve\":%.9f",
                   s.nonconverged ? "true" : "false", s.steps,
                   s.tran.newton_iterations, s.tran.factorizations,
                   s.tran.phases.assembly_seconds,
                   s.tran.phases.factor_seconds, s.tran.phases.solve_seconds);
    std::fprintf(f, "}\n");
  }
  const bool ok = std::fflush(f) == 0;
  if (std::fclose(f) != 0 || !ok)
    throw std::runtime_error("cannot write spans to " + path);
}

std::map<std::string, double> attribute_wall(
    const std::vector<SpanRecord>& records, std::uint32_t root) {
  std::unordered_map<std::uint32_t, const SpanRecord*> by_id;
  std::unordered_map<std::uint32_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : records) by_id[s.id] = &s;
  for (const SpanRecord& s : records)
    if (s.parent != 0) children[s.parent].push_back(&s);
  if (by_id.count(root) == 0) throw std::runtime_error("root span not found");

  std::map<std::string, double> wall;
  // `scale` converts this span's own seconds into wall seconds of the
  // root: 1 on the root's thread, below 1 inside overlapping siblings.
  std::function<void(const SpanRecord&, double)> visit =
      [&](const SpanRecord& s, double scale) {
        const double d = s.duration();
        if (s.has_tran && !s.nonconverged) {
          const dot::spice::PhaseTimes& p = s.tran.phases;
          const double factor_other = std::max(
              0.0, p.factor_seconds - p.factor_symbolic_seconds -
                       p.factor_numeric_seconds);
          const std::pair<const char*, double> parts[] = {
              {"spice.device_eval", p.device_eval_seconds},
              {"spice.assembly", p.assembly_seconds},
              {"numeric.factor_symbolic", p.factor_symbolic_seconds},
              {"numeric.factor_numeric", p.factor_numeric_seconds},
              {"numeric.factor_other", factor_other},
              {"numeric.solve", p.solve_seconds}};
          double covered = 0.0;
          for (const auto& part : parts) covered += part.second;
          const double fit = covered > d && covered > 0.0 ? d / covered : 1.0;
          for (const auto& part : parts)
            wall[part.first] += part.second * fit * scale;
          wall[s.name] += (d - covered * fit) * scale;
          return;
        }
        const auto it = children.find(s.id);
        if (it == children.end()) {
          wall[s.name] += d * scale;
          return;
        }
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<double, double>> iv;
        double summed = 0.0;
        for (const SpanRecord* c : it->second) {
          const double lo = std::max(c->start, s.start);
          const double hi = std::min(c->end, s.end);
          if (hi > lo) iv.emplace_back(lo, hi);
          summed += c->duration();
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
        for (const auto& [lo, hi] : iv) {
          if (lo > cur_hi) {
            if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
          } else {
            cur_hi = std::max(cur_hi, hi);
          }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        wall[s.name] += (d - covered) * scale;
        const double share = summed > 0.0 ? covered / summed : 0.0;
        for (const SpanRecord* c : it->second) visit(*c, scale * share);
      };
  visit(*by_id.at(root), 1.0);
  return wall;
}

}  // namespace perfbench
