/**
 * @file
 * Batch differential verification: the batch kernels
 * (Codec::encodeBatch / decodeBatch, Bus::transmitBatch) must encode a
 * stream split into batches of any size exactly as it is encoded one
 * transaction at a time — by the naive reference codec where the spec has
 * one, by one-transaction batches where it does not. This module checks
 * that claim the same way differential.h checks the core codecs against
 * the reference models — structured generator streams, every canonical
 * spec, and a campaign driver shared by `bxt_fuzz --batch`, CI's batch
 * mode, and tests/test_batch.cpp.
 */

#ifndef BXT_VERIFY_BATCH_CHECK_H
#define BXT_VERIFY_BATCH_CHECK_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/transaction.h"
#include "verify/invariants.h"

namespace bxt::verify {

/**
 * Encode @p stream one transaction at a time — through the naive
 * reference codec (makeRefCodec) when @p spec has one, else through a
 * fresh core instance fed one-transaction batches — and through a second
 * fresh instance chunked into TxBatches of at most @p batch_tx
 * transactions, then compare bit-for-bit:
 *
 *  - every encoded payload slice against the expected payload;
 *  - every metadata slice and the metadata wire count;
 *  - decodeBatch's output against the original transactions;
 *  - the cumulative BusStats of transmit() over the expected encodings
 *    vs transmitBatch() over the batches, wire state and idle
 *    accumulator carried across batch boundaries alike.
 *
 * @p batch_tx == 0 means one batch spanning the whole stream. Returns
 * nullopt when every comparison holds.
 */
std::optional<Violation>
checkBatchAgainstScalar(const std::string &spec,
                        const std::vector<Transaction> &stream,
                        unsigned data_wires = 32, std::size_t batch_tx = 0,
                        double idle_fraction = 0.3);

/** Batch campaign parameters (see FuzzOptions for the per-transaction
 *  analogue). */
struct BatchFuzzOptions
{
    /** Specs to sweep; empty selects canonicalSpecs(). */
    std::vector<std::string> specs;

    /** Channel widths to run each spec on (transaction = wires bytes). */
    std::vector<unsigned> dataWires = {32, 64};

    /** Generator streams per (spec, wires, batch size) unit. */
    std::uint64_t streamsPerSpec = 12;

    /** Transactions per generated stream. */
    std::size_t txPerStream = 96;

    /** Batch sizes to sweep; 1 pins the degenerate chunking, the larger
     *  sizes cross chunk boundaries mid-stream. */
    std::vector<std::size_t> batchSizes = {1, 7, 64, 512};

    /** Campaign seed; every (spec, wires, batch) unit derives a stream. */
    std::uint64_t seed = 0xba7c4f22ull;

    /** Bus idle-gap fraction (0.3 = the paper's 70 % utilization). */
    double idleFraction = 0.3;

    /** Optional progress sink (one line per unit). */
    std::function<void(const std::string &)> progress;
};

/** One batch mismatch found by the campaign. */
struct BatchFuzzFailure
{
    std::string spec;
    unsigned dataWires = 32;
    std::size_t batchTx = 0;
    std::uint64_t seed = 0;
    Violation violation;
};

/** Campaign outcome. */
struct BatchFuzzReport
{
    std::uint64_t transactionsChecked = 0;
    std::vector<BatchFuzzFailure> failures;
    bool ok() const { return failures.empty(); }
};

/** Sweep the canonical specs' batch kernels (see checkBatchAgainstScalar). */
BatchFuzzReport runBatchDifferentialFuzz(const BatchFuzzOptions &options);

} // namespace bxt::verify

#endif // BXT_VERIFY_BATCH_CHECK_H
