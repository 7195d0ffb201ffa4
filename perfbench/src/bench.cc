#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/check.h"

namespace perfbench {

std::size_t HeapInUse() {
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
  struct mallinfo2 mi = mallinfo2();
  return static_cast<std::size_t>(mi.uordblks) +
         static_cast<std::size_t>(mi.hblkhd);
#else
  return 0;
#endif
}

// ---------------------------------------------------------------- stats

Quantile TailQuantile(std::vector<double>* samples, double target_p) {
  Quantile q;
  q.n = samples->size();
  if (q.n == 0) return q;
  std::sort(samples->begin(), samples->end());
  const double last = static_cast<double>(q.n - 1);
  // A tail percentile steps down to the highest rank that keeps
  // kMinBeyond samples after it, but never below the median.
  double pos = target_p * last;
  if (target_p > 0.5) {
    const double max_pos =
        q.n > kMinBeyond ? static_cast<double>(q.n - 1 - kMinBeyond) : 0.0;
    pos = std::max(0.5 * last, std::min(pos, max_pos));
  }
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, q.n - 1);
  const double frac = pos - static_cast<double>(lo);
  q.value = (*samples)[lo] + frac * ((*samples)[hi] - (*samples)[lo]);
  q.p = q.n > 1 ? pos / last : target_p;
  q.beyond = q.n - 1 - static_cast<std::size_t>(std::ceil(pos));
  return q;
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  DYNCQ_CHECK_MSG(IsValidMetricName(name), "bad metric name: " + name);
  DYNCQ_CHECK_MSG(std::isfinite(value), "non-finite metric: " + name);
  metrics_[name] = Metric{value, unit};
}

void Report::SetQuantile(const std::string& name,
                         std::vector<double>* samples, double target_p,
                         const std::string& unit, double scale) {
  const Quantile q = TailQuantile(samples, target_p);
  Set(name, q.value * scale, unit);
  std::ostringstream os;
  os << "samples " << name << ": n=" << q.n << " p=" << std::setprecision(6)
     << q.p << " beyond=" << q.beyond;
  Note(os.str());
}

void Report::Fail(const std::string& what) {
  ++failed_;
  Note("FAILED: " + what);
}

void Report::Mismatch(const std::string& what) {
  correct_ = false;
  Fail("oracle mismatch: " + what);
}

void Report::Print(std::ostream& os) const {
  for (const std::string& n : notes_) os << n << "\n";
  for (const auto& [name, m] : metrics_) {
    os << "metric " << name << " = " << std::setprecision(10) << m.value
       << " " << m.unit << "\n";
  }
  const double share =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  os << "failed_op_share = " << share << " ratio (" << failed_ << " of "
     << attempted_ << ")\n";
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) os << ", ";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    os << "\"" << name << "\": {\"value\": " << buf << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}\n";
}

void E2eSamples::Reserve(std::size_t n) {
  update.reserve(n);
  update_traced.reserve(n);
  batch_per_cmd.reserve(n / 16 + 64);
  first_tuple.reserve(n / 8 + 64);
  enum_per_tuple.reserve(n / 64 + 64);
  snap_per_tuple.reserve(n / 64 + 64);
  snapshot_write.reserve(n / 64 + 64);
  pin.reserve(n / 64 + 64);
  reg.reserve(n / 64 + 64);
}

void EmitE2eMetrics(E2eSamples* s, Report* r) {
  r->SetQuantile("setup_s", &s->setup, 0.5, "s");
  r->SetQuantile("update_ns_p50", &s->update, 0.5, "ns");
  r->SetQuantile("update_ns_p99", &s->update, 0.99, "ns");
  r->SetQuantile("batch_ns_per_update", &s->batch_per_cmd, 0.5, "ns");
  r->SetQuantile("first_tuple_ns_p50", &s->first_tuple, 0.5, "ns");
  r->SetQuantile("enum_ns_per_tuple", &s->enum_per_tuple, 0.5, "ns");
  r->SetQuantile("snapshot_read_ns_per_tuple", &s->snap_per_tuple, 0.5, "ns");
  r->SetQuantile("snapshot_write_us_p50", &s->snapshot_write, 0.5, "us",
                 1e-3);
  r->SetQuantile("pin_us_p50", &s->pin, 0.5, "us", 1e-3);
  r->SetQuantile("register_us_p50", &s->reg, 0.5, "us", 1e-3);
  r->Set("heap_mb",
         static_cast<double>(s->heap_max > s->heap0 ? s->heap_max - s->heap0
                                                    : 0) /
             (1024.0 * 1024.0),
         "MB");
}

// ---------------------------------------------------------------- trace

const char* SpanNameStr(SpanName n) {
  static const char* const kNames[] = {
      "op",
      "session.apply",
      "session.stage",
      "session.commit",
      "cursor.open",
      "cursor.first_next",
      "cursor.drain",
      "cursor.snapshot_open",
      "cursor.snapshot_release",
      "serve.apply_delta",
      "serve.apply_batch",
      "serve.register",
      "serve.release",
      "shadow",
      "storage.apply",
      "storage.load",
      "core.prepare_write",
      "core.fork",
      "core.apply_delta",
      "core.apply_deltas",
      "core.preload",
      "cq.canonical_key",
      "cq.analyze",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(SpanName::kCount));
  return kNames[static_cast<std::size_t>(n)];
}

Tracer::Tracer(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(capacity) {
  // Headroom past the cap: a round that starts below it may finish.
  if (enabled_) spans_.resize(capacity_ + (std::size_t{1} << 16));
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "id\tparent\tcmd\tname\tstart_ns\tend_ns\titems\n";
  const std::int64_t t0 = size_ == 0 ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < size_; ++i) {
    const Span& s = spans_[i];
    os << i + 1 << '\t' << s.parent << '\t' << s.cmd << '\t'
       << SpanNameStr(s.name) << '\t' << s.start - t0 << '\t' << s.end - t0
       << '\t' << s.items << '\n';
  }
  return static_cast<bool>(os);
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  // Direct children grouped by parent, each group sorted by start.
  std::vector<std::uint32_t> order;
  order.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
    if (spans[i].parent != 0) order.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (spans[a].parent != spans[b].parent) {
      return spans[a].parent < spans[b].parent;
    }
    return spans[a].start < spans[b].start;
  });
  std::size_t i = 0;
  while (i < order.size()) {
    const std::uint32_t p = spans[order[i]].parent - 1;
    const std::int64_t ps = spans[p].start, pe = spans[p].end;
    std::int64_t covered = 0;
    std::int64_t run_s = 0, run_e = 0;
    bool open = false;
    for (; i < order.size() && spans[order[i]].parent - 1 == p; ++i) {
      const std::int64_t s = std::max(spans[order[i]].start, ps);
      const std::int64_t e = std::min(spans[order[i]].end, pe);
      if (e <= s) continue;
      if (open && s <= run_e) {
        run_e = std::max(run_e, e);
      } else {
        if (open) covered += run_e - run_s;
        run_s = s;
        run_e = e;
        open = true;
      }
    }
    if (open) covered += run_e - run_s;
    self[p] -= covered;
  }
  return self;
}

SpanTable::SpanTable(const std::vector<Span>& s)
    : spans(s), self(SelfTimes(s)), has_child(s.size(), 0) {
  for (const Span& sp : spans) {
    if (sp.parent != 0) has_child[sp.parent - 1] = 1;
  }
}

std::vector<double> SpanTable::SelfPerItem(SpanName n) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != n || spans[i].items == 0) continue;
    out.push_back(static_cast<double>(self[i]) /
                  static_cast<double>(spans[i].items));
  }
  return out;
}

std::vector<double> SpanTable::Durations(SpanName n) const {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == n) out.push_back(static_cast<double>(s.end - s.start));
  }
  return out;
}

double SpanTable::UnattributedShare() const {
  std::int64_t self_sum = 0, dur_sum = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!has_child[i]) continue;
    self_sum += self[i];
    dur_sum += spans[i].end - spans[i].start;
  }
  return dur_sum == 0 ? 0.0
                      : static_cast<double>(self_sum) /
                            static_cast<double>(dur_sum);
}

std::map<std::uint32_t, std::int64_t> SpanTable::SelfByCmd(
    std::initializer_list<SpanName> names) const {
  std::map<std::uint32_t, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (SpanName n : names) {
      if (spans[i].name == n) {
        out[spans[i].cmd] += self[i];
        break;
      }
    }
  }
  return out;
}

// ------------------------------------------------------------ commands

void CommandPool::Push(const UpdateCmd& cmd) {
  DYNCQ_CHECK(cmd.rel < (1u << 24) && cmd.tuple.size() < 128);
  words_.push_back(cmd.rel |
                   static_cast<std::uint32_t>(cmd.tuple.size()) << 24 |
                   (cmd.kind == dyncq::UpdateKind::kDelete ? 1u << 31 : 0u));
  for (dyncq::Value v : cmd.tuple) {
    DYNCQ_CHECK(v <= 0xffffffffu);
    words_.push_back(static_cast<std::uint32_t>(v));
  }
  ++count_;
}

void PoolReader::Next(UpdateCmd* out) {
  DYNCQ_CHECK(pool_.size() > 0);
  if (word_ == pool_.words_.size()) {
    word_ = 0;
    ++passes_;
  }
  const std::uint32_t* w = pool_.words_.data() + word_;
  const std::uint32_t arity = (w[0] >> 24) & 0x7f;
  out->rel = w[0] & 0xffffff;
  out->kind = (w[0] >> 31) != 0 ? dyncq::UpdateKind::kDelete
                                : dyncq::UpdateKind::kInsert;
  out->tuple.clear();
  for (std::uint32_t k = 0; k < arity; ++k) out->tuple.push_back(w[1 + k]);
  word_ += 1 + arity;
  ++taken_;
}

void PoolReader::Take(std::size_t n, std::vector<UpdateCmd>* out) {
  out->resize(n);
  for (std::size_t i = 0; i < n; ++i) Next(&(*out)[i]);
}

ChurnGen::ChurnGen(std::shared_ptr<const dyncq::Schema> schema,
                   std::uint64_t seed, std::size_t domain,
                   double insert_ratio, double noop_ratio)
    : schema_(std::move(schema)),
      rng_(seed),
      domain_(domain),
      insert_ratio_(insert_ratio),
      noop_ratio_(noop_ratio),
      live_(schema_->NumRelations()),
      index_(schema_->NumRelations()) {}

void ChurnGen::AddLive(RelId rel, const Tuple& t) {
  if (index_[rel].Insert(t, live_[rel].size()).second) {
    live_[rel].push_back(t);
  }
}

Tuple ChurnGen::RandomTuple(RelId rel) {
  Tuple t;
  for (std::size_t i = 0; i < schema_->arity(rel); ++i) {
    t.push_back(rng_.Range(1, domain_));
  }
  return t;
}

UpdateCmd ChurnGen::Next() {
  return NextFor(static_cast<RelId>(rng_.Below(schema_->NumRelations())));
}

UpdateCmd ChurnGen::NextFor(RelId rel) {
  auto& live = live_[rel];
  auto& index = index_[rel];
  last_noop_ = false;
  if (rng_.Chance(noop_ratio_)) {
    last_noop_ = true;
    if (!live.empty() && rng_.Chance(0.5)) {
      return UpdateCmd::Insert(rel, live[rng_.Below(live.size())]);
    }
    for (int tries = 0; tries < 8; ++tries) {
      Tuple t = RandomTuple(rel);
      if (!index.Contains(t)) return UpdateCmd::Delete(rel, t);
    }
    last_noop_ = false;
  }
  if (live.empty() || rng_.Chance(insert_ratio_)) {
    for (int tries = 0; tries < 8; ++tries) {
      Tuple t = RandomTuple(rel);
      if (index.Insert(t, live.size()).second) {
        live.push_back(t);
        return UpdateCmd::Insert(rel, t);
      }
    }
  }
  // Delete a uniformly random live tuple (swap-remove).
  const std::size_t pos = rng_.Below(live.size());
  Tuple t = live[pos];
  if (pos + 1 != live.size()) {
    live[pos] = live.back();
    *index.Find(live[pos]) = pos;
  }
  live.pop_back();
  index.Erase(t);
  return UpdateCmd::Delete(rel, t);
}

std::vector<Tuple> SortedTuples(std::vector<Tuple> v) {
  std::sort(v.begin(), v.end(), [](const Tuple& a, const Tuple& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  });
  return v;
}

}  // namespace perfbench
