#include "spice/resilience.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/error.hpp"

namespace dot::spice {

namespace {

thread_local EvalScope* t_scope = nullptr;

/// Installed plan. A shared_ptr swap keeps injection_point() safe
/// against a concurrent clear (test teardown while workers drain).
std::shared_ptr<const InjectionPlan>& plan_slot() {
  static std::shared_ptr<const InjectionPlan> plan;
  return plan;
}
std::atomic<bool> g_plan_active{false};

}  // namespace

EvalScope::EvalScope(std::string macro, std::size_t class_index,
                     EvalBudget budget, TranTotals* totals)
    : macro_(std::move(macro)),
      class_index_(class_index),
      budget_(budget),
      totals_(totals),
      prev_(t_scope) {
  if (budget_.timeout_ms > 0.0) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        budget_.timeout_ms));
  }
  t_scope = this;
}

EvalScope::~EvalScope() { t_scope = prev_; }

const EvalScope* EvalScope::current() { return t_scope; }

bool EvalScope::expired() const {
  return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
}

void EvalScope::check_deadline() {
  const EvalScope* scope = t_scope;
  if (scope == nullptr || !scope->expired()) return;
  throw util::TimeoutError(
      "wall-clock budget of " + std::to_string(scope->budget_.timeout_ms) +
          " ms exhausted",
      scope->class_index_, scope->macro_);
}

int EvalScope::aid_level() {
  return t_scope != nullptr ? t_scope->budget_.aid_level : 0;
}

TranTotals* EvalScope::tran_totals() {
  return t_scope != nullptr ? t_scope->totals_ : nullptr;
}

void set_injection_plan(InjectionPlan plan) {
  plan_slot() = std::make_shared<const InjectionPlan>(std::move(plan));
  g_plan_active.store(true, std::memory_order_release);
}

void clear_injection_plan() {
  g_plan_active.store(false, std::memory_order_release);
  plan_slot().reset();
}

void injection_point() {
  if (!g_plan_active.load(std::memory_order_relaxed)) return;
  const EvalScope* scope = EvalScope::current();
  if (scope == nullptr) return;
  const std::shared_ptr<const InjectionPlan> plan = plan_slot();
  if (!plan) return;
  if (!plan->macro.empty() && plan->macro != scope->macro()) return;
  if (std::find(plan->class_indices.begin(), plan->class_indices.end(),
                scope->class_index()) == plan->class_indices.end())
    return;
  switch (plan->mode) {
    case InjectionPlan::Mode::kConvergence:
      throw util::ConvergenceError("injected failure (resilience test)");
    case InjectionPlan::Mode::kTimeout:
      throw util::TimeoutError("injected deadline expiry (resilience test)",
                               scope->class_index(), scope->macro());
    case InjectionPlan::Mode::kFailBelowAid:
      if (EvalScope::aid_level() < plan->min_aid_level)
        throw util::TimeoutError(
            "injected failure below aid level " +
                std::to_string(plan->min_aid_level) + " (resilience test)",
            scope->class_index(), scope->macro());
      return;
  }
}

}  // namespace dot::spice
