// perfbench_load: the benchmark's load generator.
//
// Replays a fixed request schedule against a running shapcqd over
// loopback TCP and records, for every response, when its request was sent
// and when the response arrived (steady clock, the same CLOCK_MONOTONIC
// the daemon stamps its journal with).
//
// Usage:
//   perfbench_load --port N --schedule FILE --window W --out PREFIX
//
// The schedule has one request per line:
//   conn<TAB>kind<TAB>gate<TAB>delay_us<TAB>json
// Every connection is one thread and one socket, and sends its own lines
// in file order. A connection whose first line is a solve (kind `s`)
// keeps up to W requests in flight (W = 1 is a closed loop); a write
// connection (kind `w`) keeps one. A line with gate G >= 0 is not sent
// before G solve responses have arrived on any connection, which spreads
// writes evenly through the solves whatever the host's speed; it then
// waits delay_us more, so that it does not arrive in step with the solve
// response that opened its gate.
//
// Output (PREFIX.tsv): a header `wall_ns<TAB>N` with the time from the
// first send to the last response, then one line per response:
//   conn id send_ns recv_ns status degraded plan_cache_hit queue_ms
//   solve_ms body
// where body indexes PREFIX.bodies (one distinct `results` array per
// line; -1 when the response has none). Responses repeat a handful of
// result arrays, so the bodies stay small at any request count.
// A connection that fails records its unanswered requests as status
// `lost`. A connection may mix solves and writes; only solve responses
// count toward gates. The exit code is 0 unless the schedule or a socket is unusable.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "shapcq/util/clock.h"

namespace {

using shapcq::MonotonicNanos;

struct Line {
  char kind = 's';
  int64_t gate = -1;
  int64_t delay_us = 0;
  uint64_t id = 0;
  std::string json;
};

struct Record {
  int conn = 0;
  uint64_t id = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  std::string status;
  bool degraded = false;
  bool plan_cache_hit = false;
  std::string queue_ms = "0";
  std::string solve_ms = "0";
  int body = -1;
};

// Value text of a top-level scalar field. A key pattern `"name":` cannot
// occur inside a JSON string (its quotes would be escaped), so a plain
// search finds the field itself.
std::string ScalarField(const std::string& json, const char* name) {
  std::string key = std::string("\"") + name + "\":";
  size_t at = json.find(key);
  if (at == std::string::npos) return "";
  size_t begin = at + key.size();
  if (begin < json.size() && json[begin] == '"') {
    size_t end = json.find('"', begin + 1);
    return json.substr(begin + 1, end - begin - 1);
  }
  size_t end = json.find_first_of(",}", begin);
  return json.substr(begin, end - begin);
}

// The `results` array of a response, brackets included ("" if absent).
std::string ResultsArray(const std::string& json) {
  const std::string key = "\"results\":[";
  size_t at = json.find(key);
  if (at == std::string::npos) return "";
  size_t begin = at + key.size() - 1;
  int depth = 0;
  bool in_string = false;
  for (size_t i = begin; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      if (--depth == 0) return json.substr(begin, i - begin + 1);
    }
  }
  return "";
}

class Bodies {
 public:
  int Intern(std::string body) {
    if (body.empty()) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] =
        index_.emplace(std::move(body), static_cast<int>(order_.size()));
    if (inserted) order_.push_back(&it->first);
    return it->second;
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const std::string* body : order_) out << *body << '\n';
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, int> index_;
  std::vector<const std::string*> order_;
};

// Solve responses seen so far, across connections; gates wait on it.
struct Progress {
  std::mutex mu;
  std::condition_variable cv;
  int64_t solves_done = 0;

  void SolveDone() {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++solves_done;
    }
    cv.notify_all();
  }
  void WaitFor(int64_t gate) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return solves_done >= gate; });
  }
  // Releases every gate once a connection can make no more progress.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      solves_done = INT64_MAX / 2;
    }
    cv.notify_all();
  }
};

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Buffered line reader over a socket.
class Reader {
 public:
  explicit Reader(int fd) : fd_(fd) {}
  bool Next(std::string* line) {
    while (true) {
      size_t newline = buffer_.find('\n', start_);
      if (newline != std::string::npos) {
        line->assign(buffer_, start_, newline - start_);
        start_ = newline + 1;
        return true;
      }
      buffer_.erase(0, start_);
      start_ = 0;
      char chunk[1 << 16];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  size_t start_ = 0;
};

void RunConnection(int port, int conn, const std::vector<Line>& lines,
                   int window, Progress* progress, Bodies* bodies,
                   std::vector<Record>* records) {
  records->reserve(lines.size());
  int fd = Connect(port);
  // In flight: request id -> (send time, kind).
  std::unordered_map<uint64_t, std::pair<uint64_t, char>> in_flight;
  size_t next = 0;
  size_t received = 0;
  bool healthy = fd >= 0;
  if (healthy) {
    Reader reader(fd);
    std::string response;
    while (received < lines.size()) {
      while (next < lines.size() && next - received < static_cast<size_t>(window)) {
        const Line& line = lines[next];
        if (line.gate >= 0 && next > received) break;  // gates wait idle
        if (line.gate >= 0) progress->WaitFor(line.gate);
        if (line.delay_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(line.delay_us));
        }
        uint64_t send_ns = MonotonicNanos();
        if (!SendAll(fd, line.json + "\n")) {
          healthy = false;
          break;
        }
        in_flight[line.id] = {send_ns, line.kind};
        ++next;
      }
      if (!healthy || !reader.Next(&response)) {
        healthy = false;
        break;
      }
      Record record;
      record.recv_ns = MonotonicNanos();
      record.conn = conn;
      record.id = std::strtoull(ScalarField(response, "id").c_str(), nullptr, 10);
      auto it = in_flight.find(record.id);
      if (it == in_flight.end()) {
        std::fprintf(stderr, "perfbench_load: unexpected response id %llu\n",
                     static_cast<unsigned long long>(record.id));
        healthy = false;
        break;
      }
      record.send_ns = it->second.first;
      const char kind = it->second.second;
      in_flight.erase(it);
      record.status = ScalarField(response, "status");
      record.degraded = ScalarField(response, "degraded") == "true";
      record.plan_cache_hit = ScalarField(response, "plan_cache_hit") == "true";
      if (record.status == "ok" &&
          ScalarField(response, "mutation") != "true") {
        record.queue_ms = ScalarField(response, "queue_ms");
        record.solve_ms = ScalarField(response, "solve_ms");
        record.body = bodies->Intern(ResultsArray(response));
      }
      records->push_back(std::move(record));
      ++received;
      if (kind == 's') progress->SolveDone();
    }
    ::close(fd);
  }
  if (!healthy) {
    // Everything unanswered is lost; unblock gated writers elsewhere.
    std::vector<uint64_t> lost;
    for (const auto& [id, sent] : in_flight) lost.push_back(id);
    for (size_t i = next; i < lines.size(); ++i) lost.push_back(lines[i].id);
    for (uint64_t id : lost) {
      Record record;
      record.conn = conn;
      record.id = id;
      record.status = "lost";
      records->push_back(std::move(record));
    }
    progress->Release();
  }
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_load --port N --schedule FILE --window W "
               "--out PREFIX\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  int port = -1;
  int window = 1;
  std::string schedule_path;
  std::string out_prefix;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--port") {
      port = std::atoi(argv[i + 1]);
    } else if (flag == "--window") {
      window = std::max(1, std::atoi(argv[i + 1]));
    } else if (flag == "--schedule") {
      schedule_path = argv[i + 1];
    } else if (flag == "--out") {
      out_prefix = argv[i + 1];
    } else {
      Usage();
    }
  }
  if (port <= 0 || schedule_path.empty() || out_prefix.empty()) Usage();

  std::vector<std::vector<Line>> conns;
  std::ifstream schedule(schedule_path);
  std::string text;
  while (std::getline(schedule, text)) {
    size_t t1 = text.find('\t');
    size_t t2 = text.find('\t', t1 + 1);
    size_t t3 = text.find('\t', t2 + 1);
    size_t t4 = text.find('\t', t3 + 1);
    if (t1 == std::string::npos || t2 == std::string::npos ||
        t3 == std::string::npos || t4 == std::string::npos) {
      std::fprintf(stderr, "perfbench_load: malformed schedule line\n");
      return 2;
    }
    size_t conn = std::strtoul(text.c_str(), nullptr, 10);
    if (conn >= 4) {
      std::fprintf(stderr, "perfbench_load: at most 4 connections\n");
      return 2;
    }
    if (conns.size() <= conn) conns.resize(conn + 1);
    Line line;
    line.kind = text[t1 + 1];
    line.gate = std::strtoll(text.c_str() + t2 + 1, nullptr, 10);
    line.delay_us = std::strtoll(text.c_str() + t3 + 1, nullptr, 10);
    line.json = text.substr(t4 + 1);
    line.id = std::strtoull(ScalarField(line.json, "id").c_str(), nullptr, 10);
    conns[conn].push_back(std::move(line));
  }

  Progress progress;
  Bodies bodies;
  std::vector<std::vector<Record>> records(conns.size());
  std::vector<std::thread> threads;
  uint64_t start_ns = MonotonicNanos();
  for (size_t c = 0; c < conns.size(); ++c) {
    if (conns[c].empty()) continue;
    int conn_window = conns[c][0].kind == 's' ? window : 1;
    threads.emplace_back(RunConnection, port, static_cast<int>(c),
                         std::cref(conns[c]), conn_window, &progress, &bodies,
                         &records[c]);
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t end_ns = 0;
  for (const auto& list : records) {
    for (const Record& record : list) end_ns = std::max(end_ns, record.recv_ns);
  }

  std::ofstream out(out_prefix + ".tsv");
  out << "wall_ns\t" << (end_ns > start_ns ? end_ns - start_ns : 0) << '\n';
  for (const auto& list : records) {
    for (const Record& r : list) {
      out << r.conn << '\t' << r.id << '\t' << r.send_ns << '\t' << r.recv_ns
          << '\t' << r.status << '\t' << (r.degraded ? 1 : 0) << '\t'
          << (r.plan_cache_hit ? 1 : 0) << '\t' << r.queue_ms << '\t'
          << r.solve_ms << '\t' << r.body << '\n';
    }
  }
  bodies.Write(out_prefix + ".bodies");
  return 0;
}
