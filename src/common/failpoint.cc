#include "common/failpoint.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace tar::fail {

namespace {

/// The compiled-in site catalog. Configure rejects anything else, so a
/// typo in TAR_FAILPOINTS fails loudly instead of silently never firing.
/// Keep in sync with docs/internals.md ("Failure model").
constexpr const char* kKnownSites[] = {
    "page_file.read",       // PageFile::ReadPage
    "page_file.write",      // PageFile::GetPageForWrite
    "page_file.alloc",      // PageFile::Allocate
    "buffer_pool.fetch",    // BufferPool::Fetch / FetchForWrite
    "tia.aggregate",        // Tia::Aggregate, on every TIA backend
    "persist.open",         // SaveToFile / LoadFromFile open
    "persist.write",        // one hit per persisted v2 section (torn/flip)
    "persist.read",         // one hit per deserialization read
    "persist.rename",       // the atomic rename step of SaveToFile
    "persist.load.reserve", // bulk allocations sized by a loaded count
    "wal.append",           // WalWriter::Append, before buffering
    "wal.sync",             // WalWriter::Sync flush / Truncate
    "wal.torn",             // WalWriter::Sync batch write (torn/flip)
};

/// splitmix64: the decision hash. Statelessly mixes (seed, site, hit).
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t HashString(const char* s) {
  // FNV-1a, enough to decorrelate site names.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (; *s != '\0'; ++s) {
    h = (h ^ static_cast<unsigned char>(*s)) * 0x100000001B3ull;
  }
  return h;
}

/// Uniform double in [0, 1) from the top 53 bits of a hash.
double ToUnit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// The calling thread's shard scope (ScopedShard); -1 = no scope.
thread_local int tls_current_shard = -1;

Status ParseAction(const std::string& word, Action* action) {
  if (word == "err") {
    *action = Action::kError;
  } else if (word == "alloc") {
    *action = Action::kAllocFail;
  } else if (word == "torn") {
    *action = Action::kTornWrite;
  } else if (word == "flip") {
    *action = Action::kBitFlip;
  } else if (word == "delay") {
    *action = Action::kDelay;
  } else if (word == "off") {
    *action = Action::kOff;
  } else {
    return Status::InvalidArgument("failpoint spec: unknown action '" +
                                   word + "'");
  }
  return Status::OK();
}

}  // namespace

int CurrentShard() { return tls_current_shard; }

ScopedShard::ScopedShard(int shard) : prev_(tls_current_shard) {
  tls_current_shard = shard;
}

ScopedShard::~ScopedShard() { tls_current_shard = prev_; }

const char* ToString(Action action) {
  switch (action) {
    case Action::kOff:
      return "off";
    case Action::kError:
      return "err";
    case Action::kAllocFail:
      return "alloc";
    case Action::kTornWrite:
      return "torn";
    case Action::kBitFlip:
      return "flip";
    case Action::kDelay:
      return "delay";
  }
  return "?";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() {
  const char* env = std::getenv("TAR_FAILPOINTS");
  if (env != nullptr && env[0] != '\0') {
    Status st = Configure(env);
    if (!st.ok()) {
      std::fprintf(stderr, "TAR_FAILPOINTS invalid: %s\n",
                   st.ToString().c_str());
      std::fflush(stderr);
      std::abort();  // a typo must not silently disarm the run
    }
  }
}

std::vector<std::string> FaultInjector::KnownSites() {
  return {std::begin(kKnownSites), std::end(kKnownSites)};
}

bool FaultInjector::IsKnownSite(const std::string& site) {
  for (const char* known : kKnownSites) {
    if (site == known) return true;
  }
  return false;
}

Status FaultInjector::Configure(const std::string& spec) {
  std::vector<std::pair<std::string, Site>> parsed;
  std::uint64_t seed = 42;
  if (const char* env_seed = std::getenv("TAR_FAILPOINTS_SEED")) {
    seed = std::strtoull(env_seed, nullptr, 10);
  }

  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find_first_of(";,", pos);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    // Trim surrounding whitespace.
    std::size_t b = entry.find_first_not_of(" \t");
    std::size_t e = entry.find_last_not_of(" \t");
    if (b == std::string::npos) continue;  // empty entry
    entry = entry.substr(b, e - b + 1);

    std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      return Status::InvalidArgument(
          "failpoint spec: expected site=action in '" + entry + "'");
    }
    std::string site = entry.substr(0, eq);
    std::string rhs = entry.substr(eq + 1);

    if (site == "seed") {
      char* parse_end = nullptr;
      seed = std::strtoull(rhs.c_str(), &parse_end, 10);
      if (parse_end == rhs.c_str() || *parse_end != '\0') {
        return Status::InvalidArgument("failpoint spec: bad seed '" + rhs +
                                       "'");
      }
      continue;
    }
    if (!IsKnownSite(site)) {
      return Status::InvalidArgument("failpoint spec: unknown site '" +
                                     site + "'");
    }

    Site armed;
    std::string action_word = rhs;
    std::vector<std::string> params;
    std::size_t at = rhs.find('@');
    if (at != std::string::npos) {
      action_word = rhs.substr(0, at);
      std::size_t start = at + 1;
      while (start <= rhs.size()) {
        std::size_t next = rhs.find('@', start);
        if (next == std::string::npos) {
          params.push_back(rhs.substr(start));
          break;
        }
        params.push_back(rhs.substr(start, next - start));
        start = next + 1;
      }
    }
    TAR_RETURN_NOT_OK(ParseAction(action_word, &armed.action));
    // The shard scope selector may appear anywhere in the parameter list;
    // pull it out first so the positional delay/selector rules below see
    // only their own parameters.
    for (std::size_t p = 0; p < params.size();) {
      if (params[p].rfind("shard:", 0) != 0) {
        ++p;
        continue;
      }
      if (armed.shard >= 0) {
        return Status::InvalidArgument(
            "failpoint spec: duplicate shard selector for site '" + site +
            "'");
      }
      const std::string index = params[p].substr(6);
      char* parse_end = nullptr;
      const long long value = std::strtoll(index.c_str(), &parse_end, 10);
      if (parse_end == index.c_str() || *parse_end != '\0' || value < 0) {
        return Status::InvalidArgument(
            "failpoint spec: bad shard selector '" + params[p] +
            "' for site '" + site + "' (expected shard:i with i >= 0)");
      }
      armed.shard = static_cast<int>(value);
      params.erase(params.begin() + static_cast<std::ptrdiff_t>(p));
    }
    auto parse_positive = [&site](const std::string& param,
                                  double* value) -> Status {
      char* parse_end = nullptr;
      *value = std::strtod(param.c_str(), &parse_end);
      if (parse_end == param.c_str() || *parse_end != '\0' || *value <= 0.0) {
        return Status::InvalidArgument("failpoint spec: bad parameter '" +
                                       param + "' for site '" + site + "'");
      }
      return Status::OK();
    };
    // `delay` consumes a leading milliseconds parameter; what is left (for
    // any action) is the optional probability/nth selector.
    std::size_t selector_at = 0;
    if (armed.action == Action::kDelay) {
      if (params.empty()) {
        return Status::InvalidArgument(
            "failpoint spec: delay needs a milliseconds parameter "
            "(site=delay@ms) for site '" +
            site + "'");
      }
      TAR_RETURN_NOT_OK(parse_positive(params[0], &armed.delay_ms));
      selector_at = 1;
    }
    if (params.size() > selector_at + 1) {
      return Status::InvalidArgument(
          "failpoint spec: too many parameters for site '" + site + "'");
    }
    if (params.size() == selector_at + 1) {
      double value = 0.0;
      TAR_RETURN_NOT_OK(parse_positive(params[selector_at], &value));
      if (value < 1.0) {
        armed.probability = value;
      } else {
        armed.nth = static_cast<std::uint64_t>(value);
      }
    }
    if (armed.action != Action::kOff) {
      parsed.emplace_back(std::move(site), armed);
    }
  }

  MutexLock lock(&mu_);
  sites_ = std::move(parsed);
  seed_ = seed;
  enabled_.store(!sites_.empty(), std::memory_order_relaxed);
  return Status::OK();
}

void FaultInjector::Clear() {
  MutexLock lock(&mu_);
  sites_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

FireResult FaultInjector::Hit(const char* site) {
  FireResult result;
  if (!enabled()) return result;
  {
    MutexLock lock(&mu_);
    for (auto& [name, armed] : sites_) {
      if (name != site) continue;
      // A shard-scoped site ignores (and does not tally) hits from other
      // shards or from unscoped code; scan on for another entry of the
      // same site armed for this shard.
      if (armed.shard >= 0 && armed.shard != tls_current_shard) continue;
      ++armed.hits;
      bool fires;
      if (armed.nth > 0) {
        fires = armed.hits == armed.nth;
      } else if (armed.probability >= 0.0) {
        fires = ToUnit(Mix(seed_ ^ HashString(site) ^ armed.hits)) <
                armed.probability;
      } else {
        fires = true;
      }
      if (fires) {
        ++armed.fires;
        result.action = armed.action;
        result.delay_ms = armed.delay_ms;
        result.seed = Mix(seed_ ^ HashString(site) ^ (armed.hits << 1) ^ 1u);
      }
      break;
    }
  }
  // The sleep runs after the registry latch is dropped so a slow-I/O
  // storm stalls only the threads that actually hit the delayed site.
  if (result.action == Action::kDelay && result.delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(result.delay_ms));
  }
  return result;
}

std::vector<SiteReport> FaultInjector::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<SiteReport> out;
  out.reserve(sites_.size());
  for (const auto& [name, armed] : sites_) {
    out.push_back(SiteReport{name, armed.action, armed.hits, armed.fires});
  }
  return out;
}

std::uint64_t FaultInjector::fires(const std::string& site) const {
  MutexLock lock(&mu_);
  for (const auto& [name, armed] : sites_) {
    if (name == site) return armed.fires;
  }
  return 0;
}

Status InjectedFault(const char* site) {
  switch (FaultInjector::Global().Hit(site).action) {
    case Action::kOff:
      return Status::OK();
    case Action::kAllocFail:
      return Status::ResourceExhausted(
          std::string("injected allocation failure at failpoint ") + site);
    case Action::kDelay:
      return Status::OK();  // the sleep already happened inside Hit
    case Action::kError:
    case Action::kTornWrite:  // no payload to tear here
    case Action::kBitFlip:    // no payload to flip here
      return Status::IoError(std::string("injected I/O error at failpoint ") +
                             site);
  }
  return Status::OK();
}

}  // namespace tar::fail
