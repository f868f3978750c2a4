#ifndef LASH_IO_MMAP_FILE_H_
#define LASH_IO_MMAP_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

namespace lash {

/// The read-only bytes of a whole file, either memory-mapped (`Open`) or
/// read into one owned heap buffer (`Read`). RAII: the bytes live exactly
/// as long as the MmapFile. This is the substrate of both snapshot load
/// modes (io/snapshot.h): `Dataset` keeps the MmapFile alive for its own
/// lifetime, so every borrowed SequenceView / ArrayRef / name view handed
/// to miners stays valid without any further copy.
///
/// On POSIX, `Open` is open(O_RDONLY) → fstat → mmap(PROT_READ,
/// MAP_PRIVATE) → madvise(MADV_SEQUENTIAL) (snapshot loads scan the small
/// sections front to back; the corpus pages fault in on first access). The
/// fd is closed immediately after mapping — the mapping keeps the file
/// alive. Mapping multiple processes onto one snapshot shares a single
/// page-cache copy, which is the point: an N-worker fan-out pays the corpus
/// RSS once per machine, not once per process. On platforms without mmap,
/// `Open` reads like `Read` — same interface, same lifetime rules, no
/// sharing.
///
/// `Read` reads the file once, straight into a 64-byte-aligned buffer (the
/// snapshot section alignment), so arrays inside it are as usable in place
/// as in a page-aligned mapping.
///
/// Every failure throws IoError(kOpenFailed) naming the path. Move-only.
/// `data()` is stable across moves (neither a mapping nor the buffer ever
/// relocates), so borrowed pointers taken before a move remain valid.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile() { Reset(); }

  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only. Throws IoError(IoErrorKind::kOpenFailed) if the
  /// file cannot be opened, stat'ed, or mapped. An empty file yields a
  /// valid instance with size() == 0.
  static MmapFile Open(const std::string& path);

  /// Reads `path` into one owned, aligned buffer. Same errors as Open.
  static MmapFile Read(const std::string& path);

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  /// True once Open or Read succeeded (even for an empty file).
  bool valid() const { return valid_; }
  /// True iff the bytes are a live memory mapping (not a heap buffer).
  bool mapped() const { return valid_ && buffer_ == nullptr; }

 private:
  struct BufferDelete {
    void operator()(char* p) const;
  };

  static MmapFile Load(const std::string& path, bool map);
  void Reset();

  const char* data_ = nullptr;
  size_t size_ = 0;
  bool valid_ = false;
  /// Non-null iff the bytes were read rather than mapped.
  std::unique_ptr<char[], BufferDelete> buffer_;
};

}  // namespace lash

#endif  // LASH_IO_MMAP_FILE_H_
