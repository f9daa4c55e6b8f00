#include "host.hpp"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <thread>
#include <vector>

#include "common/cpu_meter.hpp"
#include "common/cycles.hpp"

#ifndef ZCBENCH_BUILD_TYPE
#define ZCBENCH_BUILD_TYPE "unknown"
#endif

namespace zcbench {

HostInfo host_info(const std::string& git_sha) {
  HostInfo h;
  h.nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  utsname u{};
  if (uname(&u) == 0) h.kernel = std::string(u.sysname) + " " + u.release;
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#endif
  h.build_type = ZCBENCH_BUILD_TYPE;
  h.git_sha = git_sha;
  return h;
}

NoiseProbe ping_pong_probe() {
  constexpr int kBatches = 7;
  constexpr int kTrips = 2'000;
  alignas(64) std::atomic<std::uint32_t> ball{0};
  std::jthread partner([&] {
    for (std::uint32_t want = 1; want < 2u * kBatches * kTrips; want += 2) {
      while (ball.load(std::memory_order_acquire) != want) zc::cpu_pause();
      ball.store(want + 1, std::memory_order_release);
    }
  });
  std::vector<double> batch;
  std::uint32_t next = 0;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = zc::wall_ns();
    for (int i = 0; i < kTrips; ++i) {
      ball.store(++next, std::memory_order_release);
      ++next;
      while (ball.load(std::memory_order_acquire) != next) zc::cpu_pause();
    }
    batch.push_back(static_cast<double>(zc::wall_ns() - t0) / kTrips);
  }
  partner.join();
  std::sort(batch.begin(), batch.end());
  NoiseProbe p;
  p.rtt_ns_median = batch[batch.size() / 2];
  p.rtt_ns_min = batch.front();
  p.rtt_ns_max = batch.back();
  p.unstable = p.rtt_ns_median > 2'000 || p.rtt_ns_max > 3 * p.rtt_ns_min;
  return p;
}

}  // namespace zcbench
