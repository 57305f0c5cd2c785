// Scan-path selection: which brick-scan implementation a query runs on.
//
// The vectorized path (selection-vector kernels, src/vec) is the default
// for every query; the interpreted row-at-a-time path is kept as the
// correctness oracle — differential tests re-run queries on it (with the
// result cache bypassed) and demand byte-identical results. It is
// picked per server, by tests only, and never travels on the wire.

#ifndef SCALEWALL_EXEC_SCAN_PATH_H_
#define SCALEWALL_EXEC_SCAN_PATH_H_

namespace scalewall::exec {

enum class ScanPath {
  kVectorized,   // batch-at-a-time kernels (default)
  kInterpreted,  // row-at-a-time oracle
};

}  // namespace scalewall::exec

#endif  // SCALEWALL_EXEC_SCAN_PATH_H_
