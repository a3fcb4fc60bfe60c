/**
 * @file
 * Benchmark-side tracing: spans recorded around calls into each layer
 * from the benchmark's own files, written as one Chrome trace-event
 * JSON file (opens in chrome://tracing or Perfetto). Spans are "X"
 * events carrying their own id and their parent's id; engine events
 * (fork, kill, bug) are "i" instants that carry aggregate counts, never
 * one row per state. Everything stays in memory until write().
 */

#ifndef S2E_PERFBENCH_TRACE_HH
#define S2E_PERFBENCH_TRACE_HH

#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace perfbench {

/** Seconds on the steady clock since an origin. */
class Clock
{
  public:
    Clock() : origin_(std::chrono::steady_clock::now()) {}
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point origin_;
};

class Trace
{
  public:
    /** A span open from construction to destruction (main thread). */
    class Span
    {
      public:
        Span(Trace &trace, std::string name) : trace_(trace)
        {
            id_ = trace_.open(std::move(name));
        }
        ~Span() { trace_.close(id_); }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        int id() const { return id_; }

      private:
        Trace &trace_;
        int id_;
    };

    explicit Trace(const Clock &clock) : clock_(clock) {}

    /** Innermost open span id, or 0 at top level. */
    int current() const { return open_.empty() ? 0 : open_.back(); }

    /** Instant at `t` seconds with integer args (e.g. a count). */
    void
    instant(const std::string &name, double t, int parent,
            const std::vector<std::pair<std::string, uint64_t>> &args)
    {
        events_.push_back({name, 'i', t, 0, 0, parent, args});
    }

    bool
    write(const std::string &path) const
    {
        using s2e::obs::JsonWriter;
        JsonWriter w;
        w.beginObject();
        w.key("traceEvents").beginArray();
        for (const Event &e : events_) {
            w.beginObject();
            w.field("name", e.name);
            w.field("ph", std::string(1, e.ph));
            w.field("ts", e.start * 1e6);
            if (e.ph == 'X')
                w.field("dur", e.dur * 1e6);
            else
                w.field("s", "t");
            w.field("pid", 1);
            w.field("tid", 1);
            w.key("args").beginObject();
            if (e.id)
                w.field("id", e.id);
            w.field("parent", e.parent);
            for (const auto &[k, v] : e.args)
                w.field(k, v);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.field("displayTimeUnit", "ms");
        w.endObject();
        std::ofstream out(path);
        out << w.str() << "\n";
        return static_cast<bool>(out);
    }

  private:
    struct Event {
        std::string name;
        char ph;
        double start;
        double dur;
        int id;
        int parent;
        std::vector<std::pair<std::string, uint64_t>> args;
    };

    int
    open(std::string name)
    {
        int id = static_cast<int>(events_.size()) + 1;
        events_.push_back({std::move(name), 'X', clock_.seconds(), 0, id,
                           current(), {}});
        open_.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        Event &e = events_[id - 1];
        e.dur = clock_.seconds() - e.start;
        open_.pop_back();
    }

    const Clock &clock_;
    std::vector<Event> events_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // S2E_PERFBENCH_TRACE_HH
