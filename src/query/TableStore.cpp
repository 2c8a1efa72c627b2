//===- query/TableStore.cpp - mmap-able exact distance tables ------------===//

#include "query/TableStore.h"

#include "networks/Explicit.h"
#include "perm/Lehmer.h"

#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace scg;

namespace {

//===----------------------------------------------------------------------===//
// On-disk format (little-endian, fixed 56-byte header):
//   0  char[8]  magic "SCGTBL01"
//   8  u32      endian probe 0x01020304 (reads back swapped on a
//               foreign-endian host -> rejected)
//  12  u32      format version (2; version 1 had no first-hop row)
//  16  u32      network kind (NetworkKind as integer)
//  20  u32      boxes l
//  24  u32      balls per box n
//  28  u32      symbols k (= l*n + 1)
//  32  u64      node count (= k!)
//  40  u64      FNV-1a 64 checksum of the payload bytes (both rows)
//  48  u32      degree (generator count, < 0xFF)
//  52  u32      reserved (0)
//  56  u8[node count] distance row, 0xFF = unreachable
//  56 + count   u8[node count] first-hop row, 0xFF = none, else < degree
//===----------------------------------------------------------------------===//

constexpr char Magic[8] = {'S', 'C', 'G', 'T', 'B', 'L', '0', '1'};
constexpr uint32_t EndianProbe = 0x01020304;
constexpr uint32_t FormatVersion = 2;

struct Header {
  char Magic[8];
  uint32_t Endian;
  uint32_t Version;
  uint32_t Kind;
  uint32_t L;
  uint32_t N;
  uint32_t K;
  uint64_t Count;
  uint64_t Checksum;
  uint32_t Degree;
  uint32_t Reserved;
};
static_assert(sizeof(Header) == 56, "header layout is part of the format");

uint64_t fnv1a(const uint8_t *Data, size_t Size) {
  uint64_t H = 1469598103934665603ULL;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Data[I];
    H *= 1099511628211ULL;
  }
  return H;
}

[[noreturn]] void fail(const std::string &Path, const std::string &What) {
  throw TableStoreError("TableStore " + Path + ": " + What);
}

} // namespace

/// An owned table with the distance row in Rows[0, count) and the
/// first-hop row in Rows[count, 2 * count).
TableStore TableStore::wrap(const SuperCayleyGraph &Net,
                            std::vector<uint8_t> Rows) {
  // k! rows in memory keep k, and so the degree, far below a hop byte.
  assert(Net.degree() < TableNoHop && "degree does not fit a hop byte");
  TableStore T;
  T.Kind = Net.kind();
  T.L = Net.numBoxes();
  T.N = Net.ballsPerBox();
  T.K = Net.numSymbols();
  T.Degree = Net.degree();
  T.Count = Rows.size() / 2;
  T.Owned = std::move(Rows);
  T.Row = T.Owned.data();
  return T;
}

TableStore TableStore::build(const SuperCayleyGraph &Net) {
  // The neighbour table is row-major with slot = generator index, so the
  // BFS reads hops straight off it (no Csr copy).
  const ExplicitScg Ex(Net);
  const NodeId Count = Ex.numNodes();
  const unsigned Degree = Ex.degree();
  const NodeId *Next = Ex.nextTable().data();
  std::vector<uint8_t> Rows(2 * uint64_t(Count), TableUnreachable);
  uint8_t *Dist = Rows.data(), *Hop = Dist + Count;
  // A flat FIFO (every node enters once) with the distance row as the
  // visited mark. A node's shortest first hops are the union of its
  // predecessors' one level up, so its byte is their minimum; the
  // identity's successors take the slot of their edge. The first
  // discoverer carries that minimum: level 1 enters the queue in slot
  // order, and each level inherits its discoverers' order, so every
  // level sits in the queue sorted by first hop.
  std::vector<NodeId> Queue(Count);
  Dist[0] = 0;
  Queue[0] = 0;
  for (size_t Head = 0, Tail = 1; Head != Tail; ++Head) {
    const NodeId V = Queue[Head];
    const unsigned D = Dist[V] + 1u;
    const NodeId *Out = Next + uint64_t(V) * Degree;
    for (unsigned G = 0; G != Degree; ++G) {
      const NodeId To = Out[G];
      if (Dist[To] == TableUnreachable) {
        if (D == TableUnreachable)
          throw std::length_error("table: a distance does not fit a byte");
        Dist[To] = uint8_t(D);
        Hop[To] = V == 0 ? uint8_t(G) : Hop[V];
        Queue[Tail++] = To;
      }
    }
  }
  return wrap(Net, std::move(Rows));
}

TableStore TableStore::fromRows(const SuperCayleyGraph &Net,
                                std::vector<uint8_t> Dist,
                                std::vector<uint8_t> Hop) {
  const uint64_t Count = Net.numNodes();
  if (Dist.size() != Count || Hop.size() != Count)
    throw std::invalid_argument("table: each row must have k! entries");
  // A route chase ends after d(id, R) hops and accepts only the identity
  // there, so the identity's own entry must be its distance, 0.
  if (Dist[0] != 0)
    throw std::invalid_argument("table: the identity's distance must be 0");
  // The route chase indexes generators by these bytes.
  for (uint8_t G : Hop)
    if (G != TableNoHop && G >= Net.degree())
      throw std::invalid_argument("table: first-hop byte " +
                                  std::to_string(G) + " names no generator");
  Dist.insert(Dist.end(), Hop.begin(), Hop.end());
  return wrap(Net, std::move(Dist));
}

void TableStore::save(const std::string &Path) const {
  Header H = {};
  std::memcpy(H.Magic, Magic, sizeof(Magic));
  H.Endian = EndianProbe;
  H.Version = FormatVersion;
  H.Kind = uint32_t(Kind);
  H.L = L;
  H.N = N;
  H.K = K;
  H.Count = Count;
  H.Checksum = fnv1a(Row, size_t(2 * Count));
  H.Degree = Degree;
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    fail(Path, "cannot open for writing");
  auto WriteAll = [&](const void *Data, size_t Size) {
    const char *P = static_cast<const char *>(Data);
    while (Size) {
      ssize_t W = ::write(Fd, P, Size);
      if (W <= 0) {
        ::close(Fd);
        fail(Path, "short write");
      }
      P += W;
      Size -= size_t(W);
    }
  };
  WriteAll(&H, sizeof(H));
  WriteAll(Row, size_t(2 * Count));
  if (::close(Fd) != 0)
    fail(Path, "close failed");
}

TableStore TableStore::load(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    fail(Path, "cannot open for reading");
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    ::close(Fd);
    fail(Path, "stat failed");
  }
  size_t Size = size_t(St.st_size);
  if (Size < sizeof(Header)) {
    ::close(Fd);
    fail(Path, "truncated: file smaller than the header");
  }
  void *Base = ::mmap(nullptr, Size, PROT_READ, MAP_SHARED, Fd, 0);
  ::close(Fd); // the mapping keeps the file alive.
  if (Base == MAP_FAILED)
    fail(Path, "mmap failed");

  // Validate before serving a single byte; unmap on any rejection.
  Header H;
  std::memcpy(&H, Base, sizeof(H));
  auto Reject = [&](const std::string &What) {
    ::munmap(Base, Size);
    fail(Path, What);
  };
  if (std::memcmp(H.Magic, Magic, sizeof(Magic)) != 0)
    Reject("bad magic (not a table file)");
  if (H.Endian != EndianProbe)
    Reject(H.Endian == 0x04030201
               ? "foreign-endian file (written on an incompatible host)"
               : "corrupt endianness probe");
  if (H.Version != FormatVersion)
    Reject("unsupported format version " + std::to_string(H.Version));
  if (H.K == 0 || H.K > 20 || H.Count != factorial(H.K))
    Reject("corrupt header: node count does not match k!");
  if (H.L * H.N + 1 != H.K)
    Reject("corrupt header: k != l*n + 1");
  if (H.Degree == 0 || H.Degree >= TableNoHop)
    Reject("corrupt header: degree " + std::to_string(H.Degree) +
           " does not fit a hop byte");
  const uint64_t PayloadSize = 2 * H.Count;
  if (Size != sizeof(Header) + PayloadSize)
    Reject(Size < sizeof(Header) + PayloadSize
               ? "truncated payload"
               : "trailing garbage after payload");
  const uint8_t *Payload =
      static_cast<const uint8_t *>(Base) + sizeof(Header);
  if (fnv1a(Payload, size_t(PayloadSize)) != H.Checksum)
    Reject("payload checksum mismatch (corrupt file)");
  // The route chase indexes generators by these bytes.
  const uint8_t *Hops = Payload + H.Count;
  for (uint64_t R = 0; R != H.Count; ++R)
    if (Hops[R] != TableNoHop && Hops[R] >= H.Degree)
      Reject("first-hop byte " + std::to_string(Hops[R]) + " at rank " +
             std::to_string(R) + " names no generator (degree " +
             std::to_string(H.Degree) + ")");

  TableStore T;
  T.Kind = NetworkKind(H.Kind);
  T.L = H.L;
  T.N = H.N;
  T.K = H.K;
  T.Degree = H.Degree;
  T.Count = H.Count;
  T.Row = Payload;
  T.Mapped = Base;
  T.MappedSize = Size;
  return T;
}

void TableStore::moveFrom(TableStore &Rhs) noexcept {
  Kind = Rhs.Kind;
  L = Rhs.L;
  N = Rhs.N;
  K = Rhs.K;
  Degree = Rhs.Degree;
  Count = Rhs.Count;
  Owned = std::move(Rhs.Owned);
  Mapped = Rhs.Mapped;
  MappedSize = Rhs.MappedSize;
  Row = Mapped ? static_cast<const uint8_t *>(Mapped) + sizeof(Header)
               : Owned.data();
  Rhs.Mapped = nullptr;
  Rhs.MappedSize = 0;
  Rhs.Row = nullptr;
  Rhs.Count = 0;
}

TableStore &TableStore::operator=(TableStore &&Rhs) noexcept {
  if (this != &Rhs) {
    unmap();
    moveFrom(Rhs);
  }
  return *this;
}

void TableStore::unmap() noexcept {
  if (Mapped) {
    ::munmap(Mapped, MappedSize);
    Mapped = nullptr;
    MappedSize = 0;
  }
}

TableStore::~TableStore() { unmap(); }
