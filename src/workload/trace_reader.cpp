#include "workload/trace_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <limits>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/mc_ratio.hpp"
#include "core/oversub.hpp"
#include "workload/trace.hpp"

namespace slackvm::workload {

namespace {

constexpr std::string_view kNativeHeader =
    "id,vcpus,mem_mib,level,usage,arrival,departure";
constexpr std::string_view kRealHeader = "id,vcpus,mem_mib,arrival,departure";

constexpr std::size_t kNativeColumns = 7;
constexpr std::size_t kRealColumns = 5;

/// mmap mode: drop the processed prefix every this many bytes (page-aligned
/// below, so any multiple of the page size works).
constexpr std::size_t kDropStride = std::size_t{32} << 20;

/// 10^0 .. 10^22 are exactly representable in a double (5^22 < 2^53), the
/// largest powers usable for the single-rounding fast path below.
constexpr std::array<double, 23> kPow10 = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

std::string preview(std::string_view line) {
  constexpr std::size_t kMax = 160;
  if (line.size() <= kMax) {
    return std::string(line);
  }
  return std::string(line.substr(0, kMax)) + "...";
}

/// Eight ASCII digits at once (SWAR): true iff all of chunk's bytes are
/// '0'..'9'. Little-endian load — the first character is the low byte.
bool all_digits8(std::uint64_t chunk) noexcept {
  return ((chunk & 0xF0F0F0F0F0F0F0F0ULL) |
          (((chunk + 0x0606060606060606ULL) & 0xF0F0F0F0F0F0F0F0ULL) >> 4)) ==
         0x3333333333333333ULL;
}

/// Fold eight little-endian ASCII digits into their decimal value (the
/// classic pairwise 10/100/10000 reduction). Callers must have checked
/// all_digits8 first.
std::uint32_t fold_digits8(std::uint64_t chunk) noexcept {
  chunk -= 0x3030303030303030ULL;
  chunk = (chunk * 10) + (chunk >> 8);  // adjacent pairs -> two-digit bytes
  chunk = (((chunk & 0x000000FF000000FFULL) * 0x000F424000000064ULL) +
           (((chunk >> 16) & 0x000000FF000000FFULL) * 0x0000271000000001ULL)) >>
          32;
  return static_cast<std::uint32_t>(chunk);
}

/// Consume as many digits as possible from [q, lend), eight at a time
/// while the 19-digit mantissa budget allows, then singly. Updates the
/// accumulated mantissa/digit count and flags budget overflow into `big`.
void eat_digits(const char*& q, const char* lend, std::uint64_t& mantissa,
                int& digits, bool& any, bool& big) noexcept {
  while (lend - q >= 8 && digits <= 11) {  // 11 + 8 = 19-digit budget
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, q, 8);
    if (!all_digits8(chunk)) {
      break;
    }
    mantissa = mantissa * 100000000 + fold_digits8(chunk);
    digits += 8;
    any = true;
    q += 8;
  }
  while (q != lend && *q >= '0' && *q <= '9') {
    any = true;
    if (digits < 19) {
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(*q - '0');
      ++digits;
    } else {
      big = true;
    }
    ++q;
  }
}

bool parse_double_slow(std::string_view field, double& out) noexcept {
  double value = 0;
  const char* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), last, value);
  if (ptr != last || ec != std::errc{}) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace

struct TraceReader::Impl {
  TraceReaderOptions options;
  std::string source;  ///< path, or "<memory>" for from_string

  // Contiguous backing: mmap'ed file or owned string. The cursor walks
  // [data, data + size) at `pos`.
  std::string owned;
  char* map_base = nullptr;
  std::size_t map_len = 0;
  std::size_t map_dropped = 0;  ///< prefix already MADV_DONTNEEDed
  int fd = -1;
  bool contiguous = false;
  const char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  // Chunked-stream backing: [begin, end) of `buf` holds unconsumed bytes;
  // a line split across chunks is compacted to the front and the buffer
  // refilled behind it (the partial-line carry).
  std::vector<char> buf;
  std::size_t begin = 0;
  std::size_t end = 0;
  bool stream_eof = false;
  std::uint64_t base_offset = 0;  ///< file offset of buf[0]

  // Parse state.
  bool header_done = false;
  TraceFormat fmt = TraceFormat::kAuto;
  std::size_t line_no = 0;
  std::size_t rows = 0;
  std::uint64_t consumed = 0;
  core::SimTime last_arrival = 0;
  core::VmInstance lookahead{};
  bool have_lookahead = false;

  Impl() = default;
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  ~Impl() {
    if (map_base != nullptr) {
      ::munmap(map_base, map_len);
    }
    if (fd >= 0) {
      ::close(fd);
    }
  }

  [[noreturn]] void fail(std::uint64_t offset, std::string_view column,
                         std::string_view line, const std::string& why) const {
    SLACKVM_THROW("TraceReader(" + source + "): line " + std::to_string(line_no) +
                  ", column '" + std::string(column) + "', byte " +
                  std::to_string(offset) + ": " + why + " (row: \"" +
                  preview(line) + "\")");
  }

  /// mmap mode: advise away clean pages of the already-parsed prefix so the
  /// resident set stays bounded on files larger than memory. Best-effort;
  /// MAP_PRIVATE read-only pages are refetched on (never-happening)
  /// re-access.
  void drop_processed_prefix() {
    if (map_base == nullptr || pos < map_dropped + kDropStride) {
      return;
    }
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t aligned = pos - (pos % page);
    if (aligned > map_dropped) {
      ::madvise(map_base + map_dropped, aligned - map_dropped, MADV_DONTNEED);
      map_dropped = aligned;
    }
  }

  /// Yield the next line (without its newline) and the byte offset of its
  /// first character; false at end of input. The view aliases the backing
  /// buffer and is invalidated by the next call.
  bool next_line(std::string_view& line, std::uint64_t& offset) {
    if (contiguous) {
      if (pos >= size) {
        return false;
      }
      const char* start = data + pos;
      const std::size_t remain = size - pos;
      const void* nl = std::memchr(start, '\n', remain);
      const std::size_t len =
          nl != nullptr ? static_cast<std::size_t>(static_cast<const char*>(nl) - start)
                        : remain;
      line = std::string_view(start, len);
      offset = pos;
      pos += len + (nl != nullptr ? 1 : 0);
      drop_processed_prefix();
      return true;
    }
    for (;;) {
      if (begin < end) {
        const char* start = buf.data() + begin;
        if (const void* nl = std::memchr(start, '\n', end - begin)) {
          const auto len =
              static_cast<std::size_t>(static_cast<const char*>(nl) - start);
          line = std::string_view(start, len);
          offset = base_offset + begin;
          begin += len + 1;
          return true;
        }
      }
      if (stream_eof) {
        if (begin >= end) {
          return false;
        }
        line = std::string_view(buf.data() + begin, end - begin);  // no final \n
        offset = base_offset + begin;
        begin = end;
        return true;
      }
      if (begin > 0) {
        std::memmove(buf.data(), buf.data() + begin, end - begin);
        base_offset += begin;
        end -= begin;
        begin = 0;
      }
      if (end == buf.size()) {
        buf.resize(buf.size() * 2);  // a single line longer than the buffer
      }
      const ssize_t got = ::read(fd, buf.data() + end, buf.size() - end);
      if (got < 0) {
        if (errno == EINTR) {
          continue;
        }
        SLACKVM_THROW("TraceReader(" + source +
                      "): read failed: " + std::strerror(errno));
      }
      if (got == 0) {
        stream_eof = true;
      } else {
        end += static_cast<std::size_t>(got);
      }
    }
  }

  void ensure_header() {
    if (header_done) {
      return;
    }
    std::string_view line;
    std::uint64_t offset = 0;
    if (!next_line(line, offset)) {
      SLACKVM_THROW("TraceReader(" + source + "): empty input");
    }
    line_no = 1;
    consumed = offset + line.size();
    std::string_view header = line;
    if (!header.empty() && header.back() == '\r') {
      header.remove_suffix(1);
    }
    if (options.format == TraceFormat::kAuto) {
      if (header == kNativeHeader) {
        fmt = TraceFormat::kNative;
      } else if (header == kRealHeader) {
        fmt = TraceFormat::kReal;
      } else {
        SLACKVM_THROW("TraceReader(" + source + "): unrecognized header \"" +
                      preview(header) + "\"; expected \"" +
                      std::string(kNativeHeader) + "\" (native) or \"" +
                      std::string(kRealHeader) + "\" (real)");
      }
    } else {
      // An explicit format skips the header unvalidated, like read_csv.
      fmt = options.format;
    }
    header_done = true;
  }

  /// Fused split + parse: one left-to-right cursor pass over the row, no
  /// per-field tokenization. Each field parser scans up to its terminating
  /// comma itself; error messages still name the column and quote the field.
  /// Doubles use Clinger's exact fast path — mantissa m < 2^53 from at most
  /// 19 digits and |exp10| <= 22 resolve as one correctly-rounded multiply/
  /// divide, bit-identical to the strtod/stod read_csv uses; everything
  /// else defers to std::from_chars (correctly rounded by specification).
  void parse_row(std::string_view line, std::uint64_t offset,
                 core::VmInstance& out) {
    const bool native = fmt == TraceFormat::kNative;
    const std::size_t want = native ? kNativeColumns : kRealColumns;
    const char* p = line.data();
    const char* const lend = p + line.size();
    bool more = true;  // a field starts at p

    // Cold path only: materialize the rest of the current field for an
    // error message.
    const auto rest_of_field = [&]() -> std::string {
      const void* comma = std::memchr(p, ',', static_cast<std::size_t>(lend - p));
      const char* stop = comma != nullptr ? static_cast<const char*>(comma) : lend;
      return std::string(p, stop);
    };
    const auto need_field = [&](const char* col) {
      if (!more) {
        fail(offset, col, line,
             "row has too few columns (expected " + std::to_string(want) + ")");
      }
    };
    // q points at the ',' terminating the field, or at line end.
    const auto advance_past = [&](const char* q) {
      more = q != lend;
      p = more ? q + 1 : q;
    };

    const auto u64_field = [&](const char* col) -> std::uint64_t {
      need_field(col);
      std::uint64_t value = 0;
      const char* q = p;
      while (q != lend && *q >= '0' && *q <= '9') {
        value = value * 10 + static_cast<std::uint64_t>(*q - '0');
        ++q;
      }
      if (q == p || (q != lend && *q != ',')) {
        fail(offset, col, line,
             "expected a non-negative integer, got '" + rest_of_field() + "'");
      }
      if (q - p >= 20) {
        // Only a 20+-digit field can wrap the unchecked accumulation above;
        // redo it digit-by-digit with the overflow guard (leading zeros can
        // still make such a field valid).
        value = 0;
        for (const char* r = p; r != q; ++r) {
          const auto digit = static_cast<std::uint64_t>(*r - '0');
          if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
            fail(offset, col, line,
                 "integer out of range: '" + rest_of_field() + "'");
          }
          value = value * 10 + digit;
        }
      }
      advance_past(q);
      return value;
    };
    const auto time_field = [&](const char* col) -> core::SimTime {
      need_field(col);
      const char* q = p;
      std::uint64_t mantissa = 0;
      int digits = 0;
      int exp10 = 0;
      bool any = false;
      bool big = false;  // mantissa would exceed 19 digits: fall back
      eat_digits(q, lend, mantissa, digits, any, big);
      if (q != lend && *q == '.') {
        ++q;
        const int whole_digits = digits;
        eat_digits(q, lend, mantissa, digits, any, big);
        exp10 -= digits - whole_digits;  // fraction digits shift the point
      }
      bool malformed = !any;
      if (!malformed && q != lend && (*q == 'e' || *q == 'E')) {
        ++q;
        bool neg = false;
        if (q != lend && (*q == '+' || *q == '-')) {
          neg = *q == '-';
          ++q;
        }
        if (q == lend || *q < '0' || *q > '9') {
          malformed = true;
        }
        int e = 0;
        while (q != lend && *q >= '0' && *q <= '9') {
          if (e < 10000) {
            e = e * 10 + (*q - '0');
          }
          ++q;
        }
        exp10 += neg ? -e : e;
      }
      if (malformed || (q != lend && *q != ',')) {
        fail(offset, col, line,
             "expected a number, got '" + rest_of_field() + "'");
      }
      double value = 0;
      if (!big && mantissa < (std::uint64_t{1} << 53) && exp10 >= -22 &&
          exp10 <= 22) {
        const auto m = static_cast<double>(mantissa);
        value = exp10 >= 0 ? m * kPow10[static_cast<std::size_t>(exp10)]
                           : m / kPow10[static_cast<std::size_t>(-exp10)];
      } else if (!parse_double_slow(
                     std::string_view(p, static_cast<std::size_t>(q - p)),
                     value)) {
        fail(offset, col, line,
             "expected a number, got '" + rest_of_field() + "'");
      }
      if (!(value >= 0) || !(value <= 1e300)) {  // also rejects NaN/inf
        fail(offset, col, line,
             "time must be finite and >= 0, got '" + rest_of_field() + "'");
      }
      advance_past(q);
      return value;
    };

    out.id.value = u64_field("id");
    out.spec.vcpus = static_cast<core::VcpuCount>(u64_field("vcpus"));
    if (out.spec.vcpus == 0) {
      fail(offset, "vcpus", line, "vcpus must be >= 1");
    }
    out.spec.mem_mib = static_cast<core::MemMib>(u64_field("mem_mib"));
    if (native) {
      const std::uint64_t ratio = u64_field("level");
      if (ratio < 1 || ratio > core::OversubLevel::kMaxRatio) {
        fail(offset, "level", line,
             "oversubscription ratio must be in [1, " +
                 std::to_string(core::OversubLevel::kMaxRatio) + "], got '" +
                 std::to_string(ratio) + "'");
      }
      out.spec.level = core::OversubLevel{static_cast<std::uint8_t>(ratio)};
      need_field("usage");
      // Match the four known usage words in place (prefix + terminator),
      // skipping the find-the-comma scan on the hot path.
      const auto usage_is = [&](std::string_view word) {
        if (static_cast<std::size_t>(lend - p) < word.size() ||
            std::memcmp(p, word.data(), word.size()) != 0) {
          return false;
        }
        const char* q = p + word.size();
        if (q != lend && *q != ',') {
          return false;
        }
        advance_past(q);
        return true;
      };
      if (usage_is("steady")) {
        out.spec.usage = core::UsageClass::kSteady;
      } else if (usage_is("idle")) {
        out.spec.usage = core::UsageClass::kIdle;
      } else if (usage_is("bursty")) {
        out.spec.usage = core::UsageClass::kBursty;
      } else if (usage_is("interactive")) {
        out.spec.usage = core::UsageClass::kInteractive;
      } else {
        fail(offset, "usage", line, "unknown usage class: " + rest_of_field());
      }
    } else {
      // Real traces carry no oversubscription contract: classify from the
      // requested memory-per-vCPU ratio (see core::classify_level).
      out.spec.level = core::classify_level(core::mib_to_gib(out.spec.mem_mib) /
                                            static_cast<double>(out.spec.vcpus));
      out.spec.usage = core::UsageClass::kSteady;
    }
    out.arrival = time_field("arrival");
    out.departure = time_field("departure");
    if (more) {
      fail(offset, "trailing", line,
           "row has too many columns (expected " + std::to_string(want) + ")");
    }
    if (!(out.departure > out.arrival)) {
      fail(offset, "departure", line, "departure must be strictly after arrival");
    }
    if (out.arrival < last_arrival) {
      fail(offset, "arrival", line,
           "rows must be sorted by arrival (write_csv_fast emits them sorted); this "
           "row arrives before the previous one");
    }
    last_arrival = out.arrival;
  }

  bool read_row(core::VmInstance& out) {
    ensure_header();
    std::string_view line;
    std::uint64_t offset = 0;
    while (next_line(line, offset)) {
      ++line_no;
      consumed = offset + line.size();
      if (line.empty()) {
        continue;
      }
      parse_row(line, offset, out);
      ++rows;
      return true;
    }
    return false;
  }
};

TraceReader::TraceReader(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

TraceReader::TraceReader(const std::string& path, TraceReaderOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  impl_->source = path;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT
  if (fd < 0) {
    SLACKVM_THROW("TraceReader: cannot open '" + path +
                  "': " + std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    SLACKVM_THROW("TraceReader: cannot stat '" + path +
                  "': " + std::strerror(err));
  }
  const auto file_size = static_cast<std::size_t>(st.st_size);
  if (options.use_mmap && file_size > 0) {
    void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::madvise(map, file_size, MADV_SEQUENTIAL);
      impl_->fd = fd;
      impl_->map_base = static_cast<char*>(map);
      impl_->map_len = file_size;
      impl_->contiguous = true;
      impl_->data = impl_->map_base;
      impl_->size = file_size;
      return;
    }
    // mmap can fail on exotic filesystems; chunked reads always work.
  }
  impl_->fd = fd;
  impl_->buf.resize(std::max<std::size_t>(options.chunk_bytes, 4096));
}

TraceReader TraceReader::from_string(std::string text, TraceReaderOptions options) {
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->source = "<memory>";
  impl->owned = std::move(text);
  impl->contiguous = true;
  impl->data = impl->owned.data();
  impl->size = impl->owned.size();
  return TraceReader(std::move(impl));
}

TraceReader::TraceReader(TraceReader&&) noexcept = default;
TraceReader& TraceReader::operator=(TraceReader&&) noexcept = default;
TraceReader::~TraceReader() = default;

bool TraceReader::next(core::VmInstance& out) {
  if (impl_->have_lookahead) {
    out = impl_->lookahead;
    impl_->have_lookahead = false;
    return true;
  }
  return impl_->read_row(out);
}

const core::VmInstance* TraceReader::peek() {
  if (!impl_->have_lookahead) {
    if (!impl_->read_row(impl_->lookahead)) {
      return nullptr;
    }
    impl_->have_lookahead = true;
  }
  return &impl_->lookahead;
}

void TraceReader::advance() {
  SLACKVM_ASSERT(impl_->have_lookahead);
  impl_->have_lookahead = false;
}

TraceFormat TraceReader::format() {
  impl_->ensure_header();
  return impl_->fmt;
}

std::size_t TraceReader::rows_read() const noexcept { return impl_->rows; }

std::uint64_t TraceReader::bytes_consumed() const noexcept {
  return impl_->consumed;
}

TraceReader::ScanInfo TraceReader::scan(const std::string& path,
                                        TraceReaderOptions options) {
  TraceReader reader(path, options);
  ScanInfo info;
  core::VmInstance vm;
  while (reader.next(vm)) {
    ++info.rows;
    info.horizon = std::max(info.horizon, vm.departure);
  }
  return info;
}

Trace TraceReader::read_all() {
  std::vector<core::VmInstance> vms;
  // Same sizing heuristic as the reference read_csv (~45 bytes/row) to avoid
  // growth reallocations; the input size is known for every backing.
  std::uint64_t input_bytes = 0;
  if (impl_->contiguous) {
    input_bytes = impl_->size;
  } else if (impl_->fd >= 0) {
    struct stat st = {};
    if (::fstat(impl_->fd, &st) == 0 && st.st_size > 0) {
      input_bytes = static_cast<std::uint64_t>(st.st_size);
    }
  }
  if (input_bytes > 0) {
    vms.reserve(static_cast<std::size_t>(input_bytes / 45) + 1);
  }
  core::VmInstance vm;
  while (next(vm)) {
    vms.push_back(vm);
  }
  return Trace(std::move(vms));
}

void write_csv_fast(const Trace& trace, std::ostream& os, TraceFormat format) {
  SLACKVM_ASSERT(format != TraceFormat::kAuto);
  const bool native = format == TraceFormat::kNative;
  constexpr std::size_t kFlush = std::size_t{1} << 20;
  std::string out;
  out.reserve(kFlush + 256);
  const auto put_u64 = [&out](std::uint64_t v) {
    std::array<char, 20> tmp{};
    const auto res = std::to_chars(tmp.data(), tmp.data() + tmp.size(), v);
    out.append(tmp.data(), res.ptr);
  };
  const auto put_time = [&out](double v) {
    std::array<char, 32> tmp{};
    // Shortest round-trip form: reading the file back reproduces the exact
    // double.
    const auto res = std::to_chars(tmp.data(), tmp.data() + tmp.size(), v);
    out.append(tmp.data(), res.ptr);
  };
  out += native ? kNativeHeader : kRealHeader;
  out.push_back('\n');
  for (const core::VmInstance& vm : trace.vms()) {
    put_u64(vm.id.value);
    out.push_back(',');
    put_u64(vm.spec.vcpus);
    out.push_back(',');
    put_u64(static_cast<std::uint64_t>(vm.spec.mem_mib));
    out.push_back(',');
    if (native) {
      put_u64(vm.spec.level.ratio());
      out.push_back(',');
      out += core::to_string(vm.spec.usage);
      out.push_back(',');
    }
    put_time(vm.arrival);
    out.push_back(',');
    put_time(vm.departure);
    out.push_back('\n');
    if (out.size() >= kFlush) {
      os.write(out.data(), static_cast<std::streamsize>(out.size()));
      out.clear();
    }
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

}  // namespace slackvm::workload
