#include "spans.h"

#include <cstdio>

#include "exp/json.h"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* layer, const char* name,
                           std::uint64_t op)
    : rec_(rec) {
  if (!rec_.enabled_) return;
  index_ = static_cast<int>(rec_.spans_.size());
  rec_.spans_.push_back(Span{.layer = layer,
                             .name = name,
                             .start = rec_.now(),
                             .end = 0.0,
                             .parent = rec_.open_.empty() ? -1 : rec_.open_.back(),
                             .op = op});
  rec_.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  rec_.spans_[static_cast<std::size_t>(index_)].end = rec_.now();
  rec_.open_.pop_back();
}

std::string SpanRecorder::json() const {
  std::string out = "[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d, \"op\": %llu}",
                  s.start, s.end, s.parent, static_cast<unsigned long long>(s.op));
    out += i == 0 ? "\n" : ",\n";
    out += "{\"layer\": " + stbpu::exp::json_quote(s.layer) +
           ", \"name\": " + stbpu::exp::json_quote(s.name) + ", " + buf;
  }
  out += "\n]\n";
  return out;
}

SelfTimes self_times(const std::vector<Span>& spans) {
  SelfTimes out;
  std::vector<double> child_cover(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_cover[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end - spans[i].start;
    const double self = duration - child_cover[i];
    if (spans[i].parent < 0) {
      out.unattributed_s += self;
      out.wall_s += duration;
    } else {
      out.layer_s[spans[i].layer] += self;
    }
  }
  return out;
}

}  // namespace perfbench
