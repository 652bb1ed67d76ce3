// serve_zipf: open loop over one in-process connection into the
// march_serve --stream stack: StreamFrontend -> ServingGateway (SLO
// admission) -> ShardedMissionService (2 shards x 1 worker, intra-plan
// threads 1) -> PlannerCache. Requests carry include_plan with binary
// plan encoding over a Zipf(1) mix of six planner keys (scenarios 1-4,
// 100 robots; the bench_load mix). Each job plans in about 10 ms, so
// queueing, admission, cache affinity, routing, codec and frames carry
// the weight.
//
// A nominal phase at a fixed rate is followed, after a drain, by an
// overload phase at a fixed higher rate; rates and the SLO are the
// constants in workloads.h. Every request is timed from when it was
// due, not when it was sent, so a stalled generator shows as latency;
// the generator's lateness and the backlog at each phase end are
// reported too.
//
// The seed jitters the six deployments and draws the Zipf sequence. Full-service
// plans must match their key's warm-up reference byte for byte, shed
// (degraded) plans their key's baseline reference.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <streambuf>
#include <thread>

#include "util.h"
#include "workloads.h"

namespace perfbench {

using namespace anr;

namespace {

constexpr int kSettleStreak = 64;  ///< two admission refresh windows
constexpr std::size_t kSettleMaxRequests = 2000;

/// std::streambuf over a raw fd (blocking reads and writes).
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(ibuf_, ibuf_, ibuf_);
    setp(obuf_, obuf_ + sizeof(obuf_));
  }
  ~FdStreambuf() override { sync(); }
  FdStreambuf(const FdStreambuf&) = delete;
  FdStreambuf& operator=(const FdStreambuf&) = delete;

 protected:
  int underflow() override {
    ssize_t n;
    do {
      n = ::read(fd_, ibuf_, sizeof(ibuf_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(ibuf_, ibuf_, ibuf_ + n);
    return traits_type::to_int_type(ibuf_[0]);
  }

  int overflow(int ch) override {
    if (flush_buffer() != 0) return traits_type::eof();
    if (ch != traits_type::eof()) {
      *pptr() = static_cast<char>(ch);
      pbump(1);
    }
    return ch == traits_type::eof() ? 0 : ch;
  }

  int sync() override { return flush_buffer(); }

 private:
  int flush_buffer() {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      p += n;
    }
    setp(obuf_, obuf_ + sizeof(obuf_));
    return 0;
  }

  int fd_;
  char ibuf_[1 << 16];
  char obuf_[1 << 16];
};

bool write_all(int fd, const std::string& bytes) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

/// One planner key of the mix: geometry, options and a deployment.
struct Key {
  runtime::PlanJob job;  ///< template; id and level set per request
  std::string body;      ///< request JSON without the id, leading '{' cut
};

std::vector<Key> make_mix(std::uint64_t seed) {
  struct Spec {
    int id;
    int grid;
    int cvt;
  };
  const Spec specs[] = {{1, 450, 5000}, {2, 450, 5000}, {3, 450, 5000},
                        {4, 450, 5000}, {1, 360, 4000}, {2, 360, 4000}};
  std::vector<Key> mix;
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    const Spec& s = specs[i];
    const Scenario sc = scenario(s.id);
    Key key;
    runtime::PlanJob& job = key.job;
    job.m1 = sc.m1;
    job.m2_shape = sc.m2_shape;
    job.r_c = sc.comm_range;
    job.m2_offset = sc.m1.centroid() +
                    Vec2{kServeSeparationCr * sc.comm_range, 0.0} -
                    sc.m2_shape.centroid();
    Rng rng(seed * 16 + i);
    job.positions = jitter_inside(
        sc.m1,
        optimal_coverage_positions(sc.m1, kServeRobots, 1, uniform_density())
            .positions,
        kServeJitterM, rng);
    job.options.mesher.target_grid_points = s.grid;
    job.options.cvt_samples = s.cvt;
    job.options.max_adjust_steps = 6;

    json::Array xs, ys;
    for (Vec2 p : job.positions) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
    json::Object pts;
    pts.emplace("x", std::move(xs));
    pts.emplace("y", std::move(ys));
    json::Object offset;
    offset.emplace("x", job.m2_offset.x);
    offset.emplace("y", job.m2_offset.y);
    json::Object options;
    options.emplace("grid_points", s.grid);
    options.emplace("cvt_samples", s.cvt);
    options.emplace("max_adjust_steps", 6);
    json::Object req;
    req.emplace("m1", foi_to_json(job.m1));
    req.emplace("m2", foi_to_json(job.m2_shape));
    req.emplace("r_c", job.r_c);
    req.emplace("offset", std::move(offset));
    req.emplace("positions", std::move(pts));
    req.emplace("options", std::move(options));
    req.emplace("include_plan", true);
    req.emplace("plan_encoding", "binary");
    key.body = json::Value(std::move(req)).dump().substr(1);
    mix.push_back(std::move(key));
  }
  return mix;
}

/// Zipf(s = 1) over the mix: key i has weight 1 / (i + 1).
std::vector<int> zipf_draws(std::size_t keys, std::size_t n, Rng& rng) {
  std::vector<double> cum;
  double acc = 0.0;
  for (std::size_t i = 0; i < keys; ++i) {
    acc += 1.0 / static_cast<double>(i + 1);
    cum.push_back(acc);
  }
  std::vector<int> out;
  out.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double r = rng.uniform(0.0, acc);
    const auto it = std::lower_bound(cum.begin(), cum.end(), r);
    out.push_back(static_cast<int>(
        std::min<std::ptrdiff_t>(it - cum.begin(),
                                 static_cast<std::ptrdiff_t>(keys) - 1)));
  }
  return out;
}

/// What the client knows about a request it sent.
struct Sent {
  int key = 0;
  bool warmup = false;
  Clock::time_point due;
  Clock::time_point sent;
};

/// One response frame as the client decoded it.
struct Received {
  Clock::time_point done;  ///< after the plan was decoded
  bool ok = false;
  bool degraded = false;
  std::string status;
  double queue_s = 0.0;
  double build_s = 0.0;
  double plan_s = 0.0;
  double decode_s = 0.0;
  std::size_t plan_bytes = 0;
};

/// The serving stack of march_serve --stream, in process, plus the client
/// end of its one connection (a pipe pair).
class ServeStack {
 public:
  explicit ServeStack(bool corrupt_first_plan)
      : corrupt_first_plan_(corrupt_first_plan) {
    shard::ShardedServiceOptions so;
    so.shards = kServeShards;
    so.shard.threads = kServeWorkersPerShard;
    so.shard.intra_threads = kServeIntraThreads;
    so.shard.queue_capacity = kServeQueuePerShard;
    so.registry = &registry_;
    service_ = std::make_unique<shard::ShardedMissionService>(so);

    runtime::AdmissionOptions ao;
    ao.slo_seconds = kServeSloSeconds;
    ao.queue_capacity =
        static_cast<std::size_t>(kServeQueuePerShard * kServeShards);
    ao.registry = &registry_;
    controller_ = std::make_unique<runtime::AdmissionController>(ao);
    for (int i = 0; i < kServeShards; ++i) {
      controller_->watch(registry_.histogram(
          "anr_job_e2e_full_seconds", {{"shard", std::to_string(i)}}));
    }
    pressure_ = registry_.gauge("anr_admit_pressure");

    runtime::GatewayBackend backend;
    backend.submit = [this](runtime::PlanJob job) {
      if (tracing_.load(std::memory_order_relaxed)) {
        const std::size_t j = std::stoul(job.id);
        std::lock_guard<std::mutex> lock(mu_);
        if (ingress_.size() <= j) ingress_.resize(j + 1);
        ingress_[j] = Clock::now();
        pressure_max_ = std::max(pressure_max_, pressure_->value());
      }
      return service_->submit(std::move(job));
    };
    backend.queue_depth = [this]() -> std::size_t {
      std::size_t total = 0;
      for (int i = 0; i < kServeShards; ++i) {
        total += service_->shard_service(i).queue_depth();
      }
      return total;
    };
    gateway_ =
        std::make_unique<runtime::ServingGateway>(std::move(backend),
                                                  controller_.get());
    frontend_ = std::make_unique<runtime::StreamFrontend>(gateway_.get());

    if (::pipe(request_pipe_) != 0 || ::pipe(response_pipe_) != 0) {
      throw std::runtime_error("pipe() failed");
    }
    server_ = std::thread([this] {
      {
        FdStreambuf in_buf(request_pipe_[0]);
        FdStreambuf out_buf(response_pipe_[1]);
        std::istream in(&in_buf);
        std::ostream out(&out_buf);
        frontend_->serve(in, out);
        out.flush();
      }
      ::close(response_pipe_[1]);
    });
    receiver_ = std::thread([this] { receive_loop(); });
  }

  ~ServeStack() { close(); }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  /// Ends the session: EOF to the frontend, which answers everything
  /// pending and returns; then the receiver sees EOF. Idempotent.
  void close() {
    if (closed_) return;
    closed_ = true;
    ::close(request_pipe_[1]);
    server_.join();
    receiver_.join();
    ::close(request_pipe_[0]);
    ::close(response_pipe_[0]);
  }

  /// Sends request `sent.size()` (its id is its index); false when the
  /// connection is gone.
  bool send(const Key& key, int key_index, bool warmup,
            Clock::time_point due) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(mu_);
      index = sent_.size();
      sent_.push_back({key_index, warmup, due, Clock::now()});
    }
    const std::string payload =
        "{\"id\":\"" + std::to_string(index) + "\"," + key.body;
    return write_all(request_pipe_[1],
                     encode_frame(FrameType::kRequest, payload));
  }

  /// Blocks until `n` responses arrived or `timeout_s` passed; returns
  /// the number received.
  std::size_t wait_received(std::size_t n, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                 [&] { return received_.size() >= n || receiver_done_; });
    return received_.size();
  }

  std::size_t sent_count() {
    std::lock_guard<std::mutex> lock(mu_);
    return sent_.size();
  }
  std::size_t received_count() {
    std::lock_guard<std::mutex> lock(mu_);
    return received_.size();
  }

  /// Warm-up: one request per key through the frontend, whose plan
  /// becomes the key's reference; one degraded job per key straight into
  /// the service warms the baseline memo and gives the shed reference.
  /// The cold planner builds land in the admission controller's latency
  /// window and would refuse the next window of requests, so closed-loop
  /// requests follow until kSettleStreak in a row are served in full.
  /// Returns false when a warm-up job failed.
  bool warm(const std::vector<Key>& mix, std::vector<double>* build_s) {
    const std::size_t before = received_count();
    for (std::size_t k = 0; k < mix.size(); ++k) {
      if (!send(mix[k], static_cast<int>(k), true, Clock::now())) return false;
    }
    bool ok = true;
    for (std::size_t k = 0; k < mix.size(); ++k) {
      runtime::PlanJob shed = mix[k].job;
      shed.id = "shed-warmup";
      shed.level = runtime::ServiceLevel::kDegradedOnly;
      const runtime::JobResult r = service_->submit(std::move(shed)).get();
      ok = ok && r.ok;
      std::lock_guard<std::mutex> lock(mu_);
      shed_reference_[static_cast<int>(k)] = encode_plan(r.plan);
    }
    const std::size_t want = before + mix.size();
    if (wait_received(want, 120.0) < want) return false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t j = before; j < want; ++j) {
        ok = ok && received_[j].ok && !received_[j].degraded;
        if (build_s != nullptr) build_s->push_back(received_[j].build_s);
      }
      ok = ok && reference_.size() == mix.size();
    }
    int streak = 0;
    for (std::size_t i = 0; ok && streak < kSettleStreak; ++i) {
      const std::size_t k = i % mix.size();
      const std::size_t n = sent_count();
      if (i == kSettleMaxRequests ||
          !send(mix[k], static_cast<int>(k), true, Clock::now()) ||
          wait_received(n + 1, 60.0) < n + 1) {
        return false;
      }
      std::lock_guard<std::mutex> lock(mu_);
      streak = received_[n].ok && !received_[n].degraded ? streak + 1 : 0;
    }
    return ok;
  }

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

  // Read after close() (or between phases under the caller's own
  // ordering through wait_received).
  const std::vector<Sent>& sent() const { return sent_; }
  const std::vector<Received>& received() const { return received_; }
  const std::vector<Clock::time_point>& ingress() const { return ingress_; }
  const std::vector<std::string>& violations() const { return violations_; }
  /// Decoded warm-up reference plan per key.
  const std::map<int, MarchPlan>& reference_plans() const {
    return reference_plans_;
  }
  double pressure_max() const { return pressure_max_; }
  obs::Registry& registry() { return registry_; }
  shard::ShardedMissionService& service() { return *service_; }
  runtime::GatewayStats gateway_stats() const { return gateway_->stats(); }

 private:
  void receive_loop() {
    FdStreambuf buf(response_pipe_[0]);
    std::istream in(&buf);
    for (;;) {
      Frame frame;
      std::string why;
      const FrameReadStatus st = read_frame(in, &frame, &why);
      if (st != FrameReadStatus::kFrame) {
        if (st == FrameReadStatus::kError) add_violation("frame: " + why);
        break;
      }
      handle(frame);
    }
    std::lock_guard<std::mutex> lock(mu_);
    receiver_done_ = true;
    cv_.notify_all();
  }

  void handle(Frame& frame) {
    std::optional<Sent> request;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (received_.size() < sent_.size()) request = sent_[received_.size()];
    }
    Received r;
    std::string_view result_json = frame.payload;
    std::string_view plan_view;
    if (frame.type == FrameType::kError) {
      add_violation("protocol error frame: " + frame.payload);
      result_json = {};
    } else if (frame.type == FrameType::kResponsePlan) {
      std::string why;
      if (!split_response_plan_payload(frame.payload, &result_json, &plan_view,
                                       &why)) {
        add_violation("malformed plan frame: " + why);
      }
    }
    std::string plan_bytes(plan_view);
    if (!plan_bytes.empty() && corrupt_first_plan_ && request &&
        !request->warmup) {
      corrupt_first_plan_ = false;
      plan_bytes[plan_bytes.size() / 2] ^= 0x5a;
    }
    std::optional<MarchPlan> decoded;
    if (!plan_bytes.empty()) {
      const Clock::time_point t0 = Clock::now();
      std::string why;
      decoded = decode_plan(plan_bytes, &why);
      r.decode_s = seconds_between(t0, Clock::now());
      r.plan_bytes = plan_bytes.size();
      if (!decoded) add_violation("served plan does not decode: " + why);
    }
    if (!result_json.empty()) {
      try {
        const json::Value v = json::parse(std::string(result_json));
        r.ok = v.at("ok").as_bool();
        r.status = v.at("status").as_string();
        if (r.ok) {
          r.degraded = v.at("degraded").as_bool();
          r.queue_s = v.at("queue_seconds").as_number();
          r.build_s = v.at("build_seconds").as_number();
          r.plan_s = v.at("plan_seconds").as_number();
        } else {
          r.status += ": " + v.at("error").as_string();
        }
      } catch (const std::exception& e) {
        add_violation(std::string("unreadable result: ") + e.what());
      }
    }
    r.done = Clock::now();

    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t j = received_.size();
    if (!request) {
      violations_.push_back("response without a request");
    } else if (r.ok && !plan_bytes.empty()) {
      const Sent& s = *request;
      const auto& refs = r.degraded ? shed_reference_ : reference_;
      const auto it = refs.find(s.key);
      if (s.warmup && !r.degraded && it == refs.end()) {
        reference_[s.key] = plan_bytes;
        if (decoded) reference_plans_[s.key] = std::move(*decoded);
      } else if (it == refs.end() || it->second != plan_bytes) {
        violations_.push_back(
            "request " + std::to_string(j) + " (key " +
            std::to_string(s.key) + (r.degraded ? ", shed" : "") +
            "): served plan differs from the key's reference bytes");
      }
    }
    received_.push_back(std::move(r));
    cv_.notify_all();
  }

  void add_violation(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    violations_.push_back(what);
  }

  obs::Registry registry_;
  std::unique_ptr<shard::ShardedMissionService> service_;
  std::unique_ptr<runtime::AdmissionController> controller_;
  std::unique_ptr<runtime::ServingGateway> gateway_;
  std::unique_ptr<runtime::StreamFrontend> frontend_;
  obs::Gauge* pressure_ = nullptr;

  int request_pipe_[2] = {-1, -1};
  int response_pipe_[2] = {-1, -1};
  bool closed_ = false;
  bool corrupt_first_plan_;  ///< receiver thread only
  std::atomic<bool> tracing_{false};

  std::mutex mu_;  ///< guards everything below
  std::condition_variable cv_;
  std::vector<Sent> sent_;
  std::vector<Received> received_;
  std::vector<Clock::time_point> ingress_;
  std::map<int, std::string> reference_;
  std::map<int, std::string> shed_reference_;
  std::map<int, MarchPlan> reference_plans_;
  std::vector<std::string> violations_;
  double pressure_max_ = 0.0;
  bool receiver_done_ = false;

  // Declared last: both threads use every member above.
  std::thread server_;
  std::thread receiver_;
};

struct Phase {
  std::size_t first = 0;  ///< request index range [first, end)
  std::size_t end = 0;
  std::size_t backlog_end = 0;
};

/// Sends `rate` requests per second for `duration` seconds on a fixed
/// schedule, never waiting for responses, then drains.
Phase run_phase(ServeStack& stack, const std::vector<Key>& mix, double rate,
                double duration, Rng& rng,
                const std::function<void(std::size_t)>& on_request = {}) {
  Phase ph;
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * duration));
  const std::vector<int> keys = zipf_draws(mix.size(), n, rng);
  ph.first = stack.sent_count();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    if (on_request) on_request(i);
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rate));
    std::this_thread::sleep_until(due);
    if (!stack.send(mix[static_cast<std::size_t>(keys[i])], keys[i], false,
                    due)) {
      break;
    }
  }
  ph.end = stack.sent_count();
  const std::size_t got = stack.received_count();
  ph.backlog_end = ph.end > got ? ph.end - got : 0;
  stack.wait_received(ph.end, 60.0);
  return ph;
}

}  // namespace

void run_serve_zipf(const RunArgs& args, Report& report) {
  const std::vector<Key> mix = make_mix(args.seed);

  // Set-up: stand the stack up and warm all six keys, repeated; the
  // median is setup_s and the last stack serves the schedule.
  std::vector<double> setups;
  std::vector<double> planner_builds;
  std::unique_ptr<ServeStack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (stack) {
      stack->close();
      for (const std::string& v : stack->violations()) report.violation(v);
    }
    stack.reset();
    planner_builds.clear();
    const Clock::time_point t0 = Clock::now();
    stack = std::make_unique<ServeStack>(args.inject_violation);
    if (!stack->warm(mix, &planner_builds)) {
      throw std::runtime_error("serve_zipf warm-up failed");
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const Totals warm_totals = read_totals(stack->registry());
  const shard::ShardedServiceStats shard_warm = stack->service().stats();

  Rng rng(args.seed * 2654435761ULL + 1);
  const double nominal_s = args.seconds * kServeNominalShare;
  const double overload_s = args.seconds - nominal_s;
  // Traced runs attach the benchmark's per-job ingress timers for the
  // second half of the nominal phase and the whole overload phase.
  std::size_t traced_from = 0;
  const std::size_t nominal_n = static_cast<std::size_t>(kServeNominalRate *
                                                         nominal_s);
  auto trace_switch = [&](std::size_t i) {
    if (args.trace && i == nominal_n / 2) {
      traced_from = stack->sent_count();
      stack->set_tracing(true);
    }
  };
  const Phase nominal =
      run_phase(*stack, mix, kServeNominalRate, nominal_s, rng, trace_switch);
  const runtime::GatewayStats gw_mid = stack->gateway_stats();
  const Phase overload =
      run_phase(*stack, mix, kServeOverloadRate, overload_s, rng);
  const runtime::GatewayStats gw_end = stack->gateway_stats();
  const Totals end_totals = read_totals(stack->registry());
  const shard::ShardedServiceStats shard_end = stack->service().stats();
  stack->close();

  const std::vector<Sent>& sent = stack->sent();
  const std::vector<Received>& recv = stack->received();
  for (const std::string& v : stack->violations()) report.violation(v);

  // Operations: every scheduled request. Failed: errors, rejections and
  // responses that never came back.
  std::map<std::string, std::size_t> failures;
  for (std::size_t j = nominal.first; j < overload.end; ++j) {
    report.attempted();
    if (j >= recv.size() || !recv[j].ok) {
      report.failed();
      ++failures[j >= recv.size() ? "lost" : recv[j].status];
    }
  }
  for (const auto& [why, n] : failures) {
    std::cerr << "serve_zipf: " << n << " requests failed: " << why << "\n";
  }

  auto e2e = [&](std::size_t j) {
    return seconds_between(sent[j].due, recv[j].done);
  };
  std::vector<double> nominal_lat;
  for (std::size_t j = nominal.first; j < nominal.end && j < recv.size(); ++j) {
    if (recv[j].ok) nominal_lat.push_back(e2e(j));
  }
  std::size_t good = 0, shed = 0;
  for (std::size_t j = overload.first; j < overload.end && j < recv.size();
       ++j) {
    if (recv[j].degraded) ++shed;
    if (recv[j].ok && !recv[j].degraded && e2e(j) <= kServeSloSeconds) ++good;
  }
  const double offered = static_cast<double>(overload.end - overload.first);
  // Goodput over the phase as served: first due time to last response
  // (responses arrive in request order), so a drain that runs long
  // lowers it.
  const double overload_span =
      overload.end > overload.first && recv.size() >= overload.end
          ? seconds_between(sent[overload.first].due,
                            recv[overload.end - 1].done)
          : overload_s;

  // The contract and the quality of what is served: the six decoded
  // full-service reference plans (every later full-service response
  // matched one of them byte for byte).
  std::vector<double> link_ratios, distance_ratios;
  double adjust_steps = 0.0;
  for (const auto& [k, plan] : stack->reference_plans()) {
    const PlanQuality q =
        check_contract(plan, mix[static_cast<std::size_t>(k)].job.r_c, {},
                       "serve_zipf key " + std::to_string(k), report);
    link_ratios.push_back(q.link_ratio);
    distance_ratios.push_back(q.distance / q.chord_sum);
    adjust_steps += plan.adjust_steps;
  }

  const Summary lat = summarize(nominal_lat);
  report.metric("setup_s", median_of(setups), "s");
  report.metric("latency_p50_s", lat.p50, "s");
  report.metric("latency_tail_s", lat.tail, "s");
  report.metric("goodput_ops_s", static_cast<double>(good) / overload_span,
                "1/s");
  report.metric("stable_link_ratio", mean_of(link_ratios), "ratio");
  report.metric("distance_ratio", mean_of(distance_ratios), "ratio");
  report.summary_detail("latency_s", lat);
  {
    json::Object o;
    o.emplace("nominal_rate", kServeNominalRate);
    o.emplace("overload_rate", kServeOverloadRate);
    o.emplace("slo_s", kServeSloSeconds);
    o.emplace("nominal_requests", nominal.end - nominal.first);
    o.emplace("overload_requests", overload.end - overload.first);
    o.emplace("overload_shed", shed);
    o.emplace("overload_good", good);
    report.detail("serve", json::Value(std::move(o)));
  }

  if (args.trace) {
    // Nominal-phase layers over the traced half; admission over overload.
    std::vector<double> queue, plan_exec, build, overhead, lag, untraced_lat,
        traced_lat, decode, bytes;
    double parts_sum = 0.0, e2e_sum = 0.0;
    std::size_t over_budget = 0;
    const auto& ingress = stack->ingress();
    for (std::size_t j = nominal.first; j < nominal.end && j < recv.size();
         ++j) {
      const Received& r = recv[j];
      if (!r.ok) continue;
      const double e = e2e(j);
      (j < traced_from ? untraced_lat : traced_lat).push_back(e);
      if (j < traced_from) continue;
      queue.push_back(r.queue_s);
      plan_exec.push_back(r.plan_s);
      build.push_back(r.build_s);
      overhead.push_back(e - r.queue_s - r.build_s - r.plan_s);
      decode.push_back(r.decode_s);
      bytes.push_back(static_cast<double>(r.plan_bytes));
      // Independently measured parts: generator lag, frame to backend
      // submit (parse + admission), and the service's own timings.
      const double parts =
          seconds_between(sent[j].due, sent[j].sent) +
          (j < ingress.size() ? seconds_between(sent[j].sent, ingress[j]) : 0.0) +
          r.queue_s + r.build_s + r.plan_s;
      parts_sum += parts;
      e2e_sum += e;
      if (parts > e + 1e-3) ++over_budget;
    }
    for (std::size_t j = nominal.first; j < overload.end && j < sent.size(); ++j) {
      lag.push_back(seconds_between(sent[j].due, sent[j].sent));
    }

    const Summary q = summarize(queue);
    report.metric("runtime.queue_wait_p50_s", q.p50, "s");
    report.metric("runtime.queue_wait_tail_s", q.tail, "s");
    report.metric("runtime.plan_exec_p50_s", median_of(plan_exec), "s");
    report.metric("runtime.build_wait_s", mean_of(build), "s");
    report.metric("runtime.frontend_overhead_p50_s", median_of(overhead), "s");
    report.metric("io.decode_s", mean_of(decode), "s");
    report.metric("io.plan_bytes", mean_of(bytes), "bytes");
    report.metric("bench.generator_lag_tail_s", summarize(lag).tail, "s");
    report.metric("bench.backlog_end_nominal",
                  static_cast<double>(nominal.backlog_end), "count");
    report.metric("bench.backlog_end_overload",
                  static_cast<double>(overload.backlog_end), "count");
    report.metric("bench.shed_ratio", offered > 0 ? shed / offered : 0.0,
                  "ratio");
    report.metric("bench.trace_overhead_ratio",
                  summarize(traced_lat).p50 / summarize(untraced_lat).p50,
                  "ratio");
    report.metric("bench.serve_reconcile_ratio",
                  e2e_sum > 0.0 ? parts_sum / e2e_sum : 0.0, "ratio");
    {
      json::Object o;
      o.emplace("jobs", queue.size());
      o.emplace("parts_s", parts_sum);
      o.emplace("e2e_s", e2e_sum);
      o.emplace("jobs_parts_exceed_e2e", over_budget);
      o.emplace("tolerance_s_per_job", 1e-3);
      o.emplace("within_tolerance", over_budget == 0);
      report.detail("reconcile_serving_layers", json::Value(std::move(o)));
    }

    auto delta = [&](const Totals& a, const Totals& b, const std::string& k) {
      return b.at(k) - a.at(k);
    };
    const double hits = delta(warm_totals, end_totals, "anr_cache_hits_total");
    const double misses =
        delta(warm_totals, end_totals, "anr_cache_misses_total");
    report.metric("runtime.cache_hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report.metric("runtime.cache_constructions",
                  delta(warm_totals, end_totals, "anr_cache_constructions_total"),
                  "count");
    report.metric("runtime.cache_coalesced",
                  delta(warm_totals, end_totals, "anr_cache_coalesced_total"),
                  "count");
    report.metric("runtime.admit_accept",
                  static_cast<double>(gw_end.accepted - gw_mid.accepted),
                  "count");
    report.metric("runtime.admit_shed",
                  static_cast<double>(gw_end.shed - gw_mid.shed), "count");
    report.metric("runtime.admit_reject",
                  static_cast<double>(gw_end.rejected - gw_mid.rejected),
                  "count");
    report.metric("runtime.admit_pressure_max", stack->pressure_max(), "ratio");

    double max_jobs = 0.0, sum_jobs = 0.0;
    for (std::size_t i = 0; i < shard_end.routed.size(); ++i) {
      const double jobs =
          static_cast<double>(shard_end.routed[i] - shard_warm.routed[i]);
      max_jobs = std::max(max_jobs, jobs);
      sum_jobs += jobs;
    }
    report.metric("shard.jobs_max_over_mean",
                  sum_jobs > 0 ? max_jobs * static_cast<double>(
                                                shard_end.routed.size()) /
                                     sum_jobs
                               : 0.0,
                  "ratio");
    report.metric("shard.rerouted",
                  static_cast<double>(shard_end.rerouted - shard_warm.rerouted),
                  "count");

    // Planner stages over both measured phases, from the registry the
    // service attaches to every planner it builds.
    PlannerLayers layers;
    layers.before = warm_totals;
    layers.after = end_totals;
    layers.plans = delta(warm_totals, end_totals, "anr_plans_total");
    for (std::size_t j = nominal.first; j < overload.end && j < recv.size();
         ++j) {
      if (recv[j].ok && !recv[j].degraded) layers.wall_s += recv[j].plan_s;
    }
    // The binary codec does not carry mesh statistics, so
    // mesh.t_triangles reads 0 here; adjustment steps come from the
    // references. Plans run on service workers, not the caller's arena.
    layers.adjust_steps = adjust_steps / std::max<double>(1.0, link_ratios.size());
    emit_planner_layers(layers, report);
    report.metric("march.planner_build_s", median_of(planner_builds), "s");
    emit_idle_execution_layers(report);
  }
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
