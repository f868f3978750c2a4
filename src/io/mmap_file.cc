#include "io/mmap_file.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <new>
#include <utility>

#include "io/io_error.h"

#if defined(__unix__) || defined(__APPLE__)
#define LASH_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace lash {

namespace {

/// The snapshot section alignment (io/snapshot.h): a buffer aligned like
/// this holds every section array naturally aligned, as a mapping does.
constexpr std::align_val_t kBufferAlignment{64};

[[noreturn]] void OpenFail(const std::string& path, const std::string& what) {
  throw IoError(IoErrorKind::kOpenFailed, 0,
                "mmap: " + what + ": " + path +
                    (errno != 0 ? std::string(" (") + std::strerror(errno) + ")"
                                : std::string()));
}

}  // namespace

void MmapFile::BufferDelete::operator()(char* p) const {
  ::operator delete[](p, kBufferAlignment);
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  data_ = other.data_;
  size_ = other.size_;
  valid_ = other.valid_;
  buffer_ = std::move(other.buffer_);
  other.data_ = nullptr;
  other.size_ = 0;
  other.valid_ = false;
  return *this;
}

void MmapFile::Reset() {
#if LASH_HAVE_MMAP
  if (data_ != nullptr && buffer_ == nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
#endif
  buffer_.reset();
  data_ = nullptr;
  size_ = 0;
  valid_ = false;
}

MmapFile MmapFile::Open(const std::string& path) { return Load(path, true); }

MmapFile MmapFile::Read(const std::string& path) { return Load(path, false); }

MmapFile MmapFile::Load(const std::string& path, bool map) {
  MmapFile file;
#if LASH_HAVE_MMAP
  errno = 0;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) OpenFail(path, "cannot open file");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    OpenFail(path, "cannot stat file");
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    errno = 0;
    OpenFail(path, "not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (map) {
    file.valid_ = true;
    if (size == 0) {
      // mmap(len=0) is EINVAL; an empty mapping is simply data_ == nullptr.
      ::close(fd);
      return file;
    }
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // The mapping keeps the file alive; the fd is not needed.
    if (base == MAP_FAILED) OpenFail(path, "cannot map file");
    // Advisory only — the snapshot reader scans header + small sections
    // front to back at load; ignore failures.
    (void)::madvise(base, size, MADV_SEQUENTIAL);
    file.data_ = static_cast<const char*>(base);
    file.size_ = size;
    return file;
  }
  file.buffer_.reset(
      static_cast<char*>(::operator new[](size, kBufferAlignment)));
  for (size_t got = 0; got < size;) {
    const ssize_t n = ::read(fd, file.buffer_.get() + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = 0;  // The file shrank under us.
      ::close(fd);
      OpenFail(path, "cannot read file");
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
#else
  // No mmap: both entry points read the file into the owned buffer.
  (void)map;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) OpenFail(path, "cannot open file");
  const size_t size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  file.buffer_.reset(
      static_cast<char*>(::operator new[](size, kBufferAlignment)));
  if (!in.read(file.buffer_.get(), static_cast<std::streamsize>(size))) {
    OpenFail(path, "cannot read file");
  }
#endif
  file.data_ = file.buffer_.get();
  file.size_ = size;
  file.valid_ = true;
  return file;
}

}  // namespace lash
