#include "ccov/engine/metrics.hpp"

#include <cctype>
#include <stdexcept>

namespace ccov::engine {

void MetricsRegistry::check_name(const std::string& name) {
  bool ok = !name.empty() &&
            (std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_');
  for (std::size_t i = 1; ok && i < name.size(); ++i)
    ok = std::isalnum(static_cast<unsigned char>(name[i])) || name[i] == '_';
  if (!ok)
    throw std::invalid_argument("metrics: invalid metric name '" + name + "'");
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  check_name(name);
  util::MutexLock lk(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric m;
    m.kind = Metric::Kind::kCounter;
    m.help = help;
    m.counter = std::make_unique<Counter>();
    it = metrics_.emplace(name, std::move(m)).first;
  }
  if (it->second.kind != Metric::Kind::kCounter || !it->second.counter)
    throw std::invalid_argument("metrics: '" + name +
                                "' is not an owned counter");
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  check_name(name);
  util::MutexLock lk(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric m;
    m.kind = Metric::Kind::kGauge;
    m.help = help;
    m.gauge = std::make_unique<Gauge>();
    it = metrics_.emplace(name, std::move(m)).first;
  }
  if (it->second.kind != Metric::Kind::kGauge || !it->second.gauge)
    throw std::invalid_argument("metrics: '" + name + "' is not an owned gauge");
  return *it->second.gauge;
}

void MetricsRegistry::counter_fn(const std::string& name,
                                 const std::string& help,
                                 std::function<std::uint64_t()> fn) {
  check_name(name);
  if (!fn) throw std::invalid_argument("metrics: null callback for " + name);
  util::MutexLock lk(mu_);
  Metric m;
  m.kind = Metric::Kind::kCounter;
  m.help = help;
  m.read_u64 = std::move(fn);
  if (!metrics_.emplace(name, std::move(m)).second)
    throw std::invalid_argument("metrics: duplicate metric '" + name + "'");
}

void MetricsRegistry::gauge_fn(const std::string& name, const std::string& help,
                               std::function<std::int64_t()> fn) {
  check_name(name);
  if (!fn) throw std::invalid_argument("metrics: null callback for " + name);
  util::MutexLock lk(mu_);
  Metric m;
  m.kind = Metric::Kind::kGauge;
  m.help = help;
  m.read_i64 = std::move(fn);
  if (!metrics_.emplace(name, std::move(m)).second)
    throw std::invalid_argument("metrics: duplicate metric '" + name + "'");
}

std::int64_t MetricsRegistry::current_value(const Metric& m) {
  if (m.counter) return static_cast<std::int64_t>(m.counter->value());
  if (m.gauge) return m.gauge->value();
  if (m.read_u64) return static_cast<std::int64_t>(m.read_u64());
  return m.read_i64();
}

std::string MetricsRegistry::render_prometheus() const {
  util::MutexLock lk(mu_);
  std::string out;
  for (const auto& [name, m] : metrics_) {
    out += "# HELP " + name + " " + m.help + "\n";
    out += "# TYPE " + name + " ";
    out += m.kind == Metric::Kind::kCounter ? "counter" : "gauge";
    out += "\n";
    out += name + " " + std::to_string(current_value(m)) + "\n";
  }
  return out;
}

std::int64_t MetricsRegistry::value(const std::string& name) const {
  util::MutexLock lk(mu_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? -1 : current_value(it->second);
}

std::vector<std::pair<std::string, std::int64_t>> MetricsRegistry::snapshot()
    const {
  util::MutexLock lk(mu_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) out.emplace_back(name, current_value(m));
  return out;
}

}  // namespace ccov::engine
