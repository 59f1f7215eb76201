#include "obs/metrics.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace softsku {

const char *
metricScopeName(MetricScope scope)
{
    return scope == MetricScope::Deterministic ? "deterministic"
                                               : "operational";
}

std::uint64_t
MetricsRegistry::Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_.count();
}

double
MetricsRegistry::Histogram::mean() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_.mean();
}

double
MetricsRegistry::Histogram::percentile(double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_.percentile(q);
}

void
MetricsRegistry::Histogram::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_.clear();
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Entry &
MetricsRegistry::entryFor(const std::string &name, MetricRow::Kind kind,
                          MetricScope scope)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
        if (it->second.kind != kind || it->second.scope != scope) {
            panic("metric '%s' re-registered with a different kind or "
                  "scope", name.c_str());
        }
        return it->second;
    }
    Entry entry;
    entry.kind = kind;
    entry.scope = scope;
    return entries_.emplace(name, std::move(entry)).first->second;
}

MetricsRegistry::Counter &
MetricsRegistry::counter(const std::string &name, MetricScope scope)
{
    Entry &entry = entryFor(name, MetricRow::Kind::Counter, scope);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!entry.counter)
        entry.counter = std::make_unique<Counter>();
    return *entry.counter;
}

MetricsRegistry::Gauge &
MetricsRegistry::gauge(const std::string &name, MetricScope scope)
{
    Entry &entry = entryFor(name, MetricRow::Kind::Gauge, scope);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!entry.gauge)
        entry.gauge = std::make_unique<Gauge>();
    return *entry.gauge;
}

MetricsRegistry::Histogram &
MetricsRegistry::histogram(const std::string &name, MetricScope scope,
                           double minValue, double maxValue)
{
    Entry &entry = entryFor(name, MetricRow::Kind::Histogram, scope);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!entry.histogram)
        entry.histogram = std::make_unique<Histogram>(minValue, maxValue);
    return *entry.histogram;
}

MetricsSnapshot
MetricsRegistry::snapshot(bool includeOperational) const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, entry] : entries_) {
        if (!includeOperational &&
            entry.scope == MetricScope::Operational)
            continue;
        MetricRow row;
        row.name = name;
        row.kind = entry.kind;
        row.scope = entry.scope;
        switch (entry.kind) {
          case MetricRow::Kind::Counter:
            row.value = static_cast<double>(entry.counter->value());
            break;
          case MetricRow::Kind::Gauge:
            row.value = entry.gauge->value();
            break;
          case MetricRow::Kind::Histogram:
            row.count = entry.histogram->count();
            row.mean = entry.histogram->mean();
            row.p50 = entry.histogram->percentile(0.50);
            row.p95 = entry.histogram->percentile(0.95);
            row.p99 = entry.histogram->percentile(0.99);
            break;
        }
        snap.rows.push_back(std::move(row));
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, entry] : entries_) {
        (void)name;
        if (entry.counter)
            entry.counter->reset();
        if (entry.gauge)
            entry.gauge->reset();
        if (entry.histogram)
            entry.histogram->reset();
    }
}

Json
MetricsSnapshot::toJson() const
{
    Json doc = Json::object();
    for (const MetricRow &row : rows) {
        switch (row.kind) {
          case MetricRow::Kind::Counter:
            doc.set(row.name,
                    Json(static_cast<long long>(row.value)));
            break;
          case MetricRow::Kind::Gauge:
            doc.set(row.name, Json(row.value));
            break;
          case MetricRow::Kind::Histogram: {
            Json hist = Json::object();
            hist.set("count",
                     Json(static_cast<long long>(row.count)));
            hist.set("mean", Json(row.mean));
            hist.set("p50", Json(row.p50));
            hist.set("p95", Json(row.p95));
            hist.set("p99", Json(row.p99));
            doc.set(row.name, std::move(hist));
            break;
          }
        }
    }
    return doc;
}

std::string
MetricsSnapshot::renderTable() const
{
    TextTable table;
    table.header({"metric", "scope", "value", "count", "mean", "p50",
                  "p95", "p99"});
    for (const MetricRow &row : rows) {
        switch (row.kind) {
          case MetricRow::Kind::Counter:
            table.row({row.name, metricScopeName(row.scope),
                       format("%llu", static_cast<unsigned long long>(
                                          row.value)),
                       "", "", "", "", ""});
            break;
          case MetricRow::Kind::Gauge:
            table.row({row.name, metricScopeName(row.scope),
                       format("%.4g", row.value), "", "", "", "", ""});
            break;
          case MetricRow::Kind::Histogram:
            table.row({row.name, metricScopeName(row.scope), "",
                       format("%llu", static_cast<unsigned long long>(
                                          row.count)),
                       format("%.4g", row.mean),
                       format("%.4g", row.p50),
                       format("%.4g", row.p95),
                       format("%.4g", row.p99)});
            break;
        }
    }
    return table.render();
}

void
MetricsSnapshot::append(const MetricsSnapshot &other)
{
    rows.insert(rows.end(), other.rows.begin(), other.rows.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const MetricRow &a, const MetricRow &b) {
                         return a.name < b.name;
                     });
}

} // namespace softsku
