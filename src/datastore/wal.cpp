#include "datastore/wal.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/hashing.h"
#include "obs/metrics.h"

namespace smartflux::ds {

namespace {

/// Flush the user-space buffer to the OS once it exceeds this, even under
/// kEveryWave (bounds memory, keeps the file current for external readers).
constexpr std::size_t kPendingFlushBytes = 1u << 20;

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void put_f64(std::string& out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked decode cursor over one payload.
class Decoder {
 public:
  Decoder(const char* data, std::size_t n, const std::string& path)
      : p_(data), end_(data + n), path_(path) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(*p_++);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, p_, 4);
    p_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, p_, 8);
    p_ += 8;
    return v;
  }
  double f64() {
    need(8);
    double v;
    std::memcpy(&v, p_, 8);
    p_ += 8;
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(p_, n);
    p_ += n;
    return s;
  }
  bool exhausted() const noexcept { return p_ == end_; }

 private:
  void need(std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) {
      throw Error("WAL payload underrun in '" + path_ + "' (corrupt record body)");
    }
  }

  const char* p_;
  const char* end_;
  const std::string& path_;
};

std::string format_seq_name(const char* prefix, const char* suffix, std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%06llu%s", prefix,
                static_cast<unsigned long long>(seq), suffix);
  return buf;
}

std::optional<std::uint64_t> parse_seq_name(std::string_view name, std::string_view prefix,
                                            std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(name.size() - suffix.size()) != suffix) return std::nullopt;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::uint64_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

}  // namespace

std::string checkpoint_file_name(std::uint64_t cut_seq) {
  return format_seq_name("checkpoint-", ".sfck", cut_seq);
}

std::optional<std::uint64_t> parse_checkpoint_file_name(std::string_view name) {
  return parse_seq_name(name, "checkpoint-", ".sfck");
}

std::string wal_segment_name(std::size_t shard, std::uint64_t seq) {
  char buf[80];
  std::snprintf(buf, sizeof buf, "wal-s%llu-%06llu.sflog",
                static_cast<unsigned long long>(shard), static_cast<unsigned long long>(seq));
  return buf;
}

std::optional<WalSegmentId> parse_wal_segment_name(std::string_view name) {
  constexpr std::string_view prefix = "wal-s";
  if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix) {
    return std::nullopt;
  }
  const std::size_t dash = name.find('-', prefix.size());
  if (dash == std::string_view::npos || dash == prefix.size()) return std::nullopt;
  std::size_t shard = 0;
  for (const char c : name.substr(prefix.size(), dash - prefix.size())) {
    if (c < '0' || c > '9') return std::nullopt;
    shard = shard * 10 + static_cast<std::size_t>(c - '0');
  }
  const auto seq = parse_seq_name(name.substr(dash + 1), "", ".sflog");
  if (!seq) return std::nullopt;
  return WalSegmentId{shard, *seq};
}

// ---------------------------------------------------------------------------
// WalWriter

WalWriter::WalWriter(std::string path, WalFlushPolicy policy, FaultInjector* injector,
                     std::atomic<std::uint64_t>& lsn_counter, std::string fault_tag)
    : path_(std::move(path)),
      file_(SyncFile::open_append(path_)),
      policy_(policy),
      injector_(injector),
      lsn_counter_(lsn_counter),
      fault_tag_(std::move(fault_tag)) {}

WalWriter::~WalWriter() {
  if (!broken_ && !pending_.empty()) {
    try {
      file_.write_all(pending_.data(), pending_.size());
    } catch (...) {
      // Destructor: a crash would have lost these bytes too.
    }
  }
}

void WalWriter::check_usable() const {
  if (broken_) {
    throw Error("WAL '" + path_ + "' is broken (previous write or fsync failed); "
                "the store must be recovered from disk");
  }
}

std::uint64_t WalWriter::next_lsn() noexcept {
  return lsn_counter_.fetch_add(1, std::memory_order_relaxed);
}

void WalWriter::append(std::string_view payload, int sync_class, std::uint64_t lsn) {
  check_usable();
  SF_CHECK(payload.size() <= kWalMaxPayloadBytes, "WAL record payload too large");

  DiskWriteFault fault = DiskWriteFault::kNone;
  if (injector_ != nullptr) fault = injector_->disk_write_fault(fault_tag_, lsn);
  if (fault == DiskWriteFault::kCrash) {
    broken_ = true;
    // A crash before the record: previously buffered records die with the
    // process (they were never synced), so drop them too.
    pending_.clear();
    throw InjectedFault("injected crash before WAL record " + std::to_string(lsn));
  }

  std::string frame;
  frame.reserve(8 + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32c(payload.data(), payload.size()));
  frame.append(payload);

  if (fault == DiskWriteFault::kTornWrite || fault == DiskWriteFault::kShortWrite) {
    broken_ = true;
    // Earlier buffered-but-unsynced records reach the OS here: a torn write
    // tears only the record being appended, not its predecessors.
    if (!pending_.empty()) {
      file_.write_all(pending_.data(), pending_.size());
      pending_.clear();
    }
    const std::size_t keep =
        fault == DiskWriteFault::kShortWrite
            ? frame.size() - 1
            : injector_->torn_write_bytes(fault_tag_, lsn, frame.size());
    file_.write_all(frame.data(), keep);
    throw InjectedFault("injected torn write at WAL record " + std::to_string(lsn));
  }

  bytes_appended_ += frame.size();
  if (obs_ != nullptr && obs_->records != nullptr) {
    obs_->records->inc();
    obs_->bytes->inc(frame.size());
    if (obs_->shard_bytes != nullptr) obs_->shard_bytes->inc(frame.size());
  }

  pending_.append(frame);
  const bool policy_sync =
      (sync_class == 1 && policy_ != WalFlushPolicy::kEveryWave) ||
      (sync_class != 2 && policy_ == WalFlushPolicy::kEveryOp);
  if (policy_sync) {
    sync();
  } else if (sync_class == 2 || pending_.size() >= kPendingFlushBytes ||
             policy_ != WalFlushPolicy::kEveryWave) {
    flush();
  }
}

void WalWriter::flush() {
  check_usable();
  if (pending_.empty()) return;
  try {
    file_.write_all(pending_.data(), pending_.size());
  } catch (...) {
    broken_ = true;
    throw;
  }
  pending_.clear();
}

void WalWriter::sync() {
  flush();
  const std::uint64_t seq = sync_seq_++;
  if (injector_ != nullptr && injector_->disk_fsync_fault(fault_tag_, seq)) {
    broken_ = true;
    throw InjectedFault("injected fsync failure on WAL '" + path_ + "'");
  }
  std::chrono::steady_clock::time_point t0;
  const bool timed = obs_ != nullptr && obs_->fsync_duration != nullptr;
  if (timed) t0 = std::chrono::steady_clock::now();
  try {
    file_.sync();
  } catch (...) {
    broken_ = true;
    throw;
  }
  if (timed) {
    obs_->fsync_duration->observe(
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count()) *
        1e-9);
    obs_->syncs->inc();
  } else if (obs_ != nullptr && obs_->syncs != nullptr) {
    obs_->syncs->inc();
  }
}

void WalWriter::append_put(std::string_view table, std::string_view row,
                           std::string_view column, Timestamp ts, double value) {
  const std::uint64_t lsn = next_lsn();
  scratch_.clear();
  put_u8(scratch_, static_cast<std::uint8_t>(WalRecordKind::kPut));
  put_u64(scratch_, lsn);
  put_str(scratch_, table);
  put_str(scratch_, row);
  put_str(scratch_, column);
  put_u64(scratch_, ts);
  put_f64(scratch_, value);
  append(scratch_, 0, lsn);
}

void WalWriter::append_batch(std::string_view table, Timestamp ts, std::span<const PutOp> ops) {
  const std::uint64_t lsn = next_lsn();
  scratch_.clear();
  put_u8(scratch_, static_cast<std::uint8_t>(WalRecordKind::kPutBatch));
  put_u64(scratch_, lsn);
  put_str(scratch_, table);
  put_u64(scratch_, ts);
  put_u32(scratch_, static_cast<std::uint32_t>(ops.size()));
  for (const PutOp& op : ops) {
    put_str(scratch_, op.row);
    put_str(scratch_, op.column);
    put_f64(scratch_, op.value);
  }
  append(scratch_, 1, lsn);
}

void WalWriter::append_erase(std::string_view table, std::string_view row,
                             std::string_view column, Timestamp ts) {
  const std::uint64_t lsn = next_lsn();
  scratch_.clear();
  put_u8(scratch_, static_cast<std::uint8_t>(WalRecordKind::kErase));
  put_u64(scratch_, lsn);
  put_str(scratch_, table);
  put_str(scratch_, row);
  put_str(scratch_, column);
  put_u64(scratch_, ts);
  append(scratch_, 0, lsn);
}

void WalWriter::append_create_table(std::string_view table, std::uint64_t lsn) {
  scratch_.clear();
  put_u8(scratch_, static_cast<std::uint8_t>(WalRecordKind::kCreateTable));
  put_u64(scratch_, lsn);
  put_str(scratch_, table);
  append(scratch_, 1, lsn);
}

void WalWriter::append_drop_table(std::string_view table, std::uint64_t lsn) {
  scratch_.clear();
  put_u8(scratch_, static_cast<std::uint8_t>(WalRecordKind::kDropTable));
  put_u64(scratch_, lsn);
  put_str(scratch_, table);
  append(scratch_, 1, lsn);
}

void WalWriter::append_clear(std::uint64_t lsn) {
  scratch_.clear();
  put_u8(scratch_, static_cast<std::uint8_t>(WalRecordKind::kClear));
  put_u64(scratch_, lsn);
  append(scratch_, 1, lsn);
}

void WalWriter::append_wave_commit(Timestamp wave, std::uint64_t lsn) {
  scratch_.clear();
  put_u8(scratch_, static_cast<std::uint8_t>(WalRecordKind::kWaveCommit));
  put_u64(scratch_, lsn);
  put_u64(scratch_, wave);
  append(scratch_, 2, lsn);
}

// ---------------------------------------------------------------------------
// WalReader

WalReader::WalReader(const std::string& path) : path_(path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open WAL segment '" + path + "'");
  std::string data((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (is.bad()) throw Error("read failed for WAL segment '" + path + "'");
  data_ = std::move(data);
}

WalReader::Next WalReader::next(WalRecord& out) {
  if (done_) return Next::kEnd;
  const std::uint64_t remaining = data_.size() - pos_;
  if (remaining == 0) {
    done_ = true;
    return Next::kEnd;
  }
  // A partial header can only be the torn tail of the final append.
  if (remaining < 8) {
    done_ = true;
    return Next::kTornTail;
  }
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&len, data_.data() + pos_, 4);
  std::memcpy(&crc, data_.data() + pos_ + 4, 4);
  if (len > kWalMaxPayloadBytes) {
    // An absurd length with a full header present is corruption, not a torn
    // append — lengths are written before payloads, atomically within one
    // buffered write in practice, but we cannot prove which, so be strict
    // only when bytes follow that a sane record would not have.
    throw Error("WAL record length " + std::to_string(len) + " exceeds sanity cap in '" +
                path_ + "' (corrupt log)");
  }
  if (remaining - 8 < len) {
    done_ = true;
    return Next::kTornTail;
  }
  const char* payload = data_.data() + pos_ + 8;
  if (crc32c(payload, len) != crc) {
    if (pos_ + 8 + len == data_.size()) {
      // Bad checksum on the very last record: a torn write that happened to
      // reach full length minus some payload bytes, or a short write.
      // Tolerated: truncate to the previous record.
      done_ = true;
      return Next::kTornTail;
    }
    throw Error("WAL checksum mismatch at offset " + std::to_string(pos_) + " in '" + path_ +
                "' (mid-log corruption is not recoverable)");
  }

  Decoder dec(payload, len, path_);
  out = WalRecord{};
  const auto kind = static_cast<WalRecordKind>(dec.u8());
  out.kind = kind;
  out.lsn = dec.u64();
  switch (kind) {
    case WalRecordKind::kPut:
      out.table = dec.str();
      out.row = dec.str();
      out.column = dec.str();
      out.ts = dec.u64();
      out.value = dec.f64();
      break;
    case WalRecordKind::kPutBatch: {
      out.table = dec.str();
      out.ts = dec.u64();
      const std::uint32_t n = dec.u32();
      out.batch.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        WalRecord::BatchOp op;
        op.row = dec.str();
        op.column = dec.str();
        op.value = dec.f64();
        out.batch.push_back(std::move(op));
      }
      break;
    }
    case WalRecordKind::kErase:
      out.table = dec.str();
      out.row = dec.str();
      out.column = dec.str();
      out.ts = dec.u64();
      break;
    case WalRecordKind::kCreateTable:
    case WalRecordKind::kDropTable:
      out.table = dec.str();
      break;
    case WalRecordKind::kClear:
      break;
    case WalRecordKind::kWaveCommit:
      out.wave = dec.u64();
      break;
    default:
      throw Error("unknown WAL record kind " + std::to_string(static_cast<int>(kind)) +
                  " in '" + path_ + "'");
  }
  if (!dec.exhausted()) {
    throw Error("WAL record has trailing payload bytes in '" + path_ + "' (corrupt record)");
  }
  pos_ += 8 + len;
  clean_bytes_ = pos_;
  ++records_read_;
  return Next::kRecord;
}

}  // namespace smartflux::ds
