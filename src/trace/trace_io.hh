/**
 * @file
 * Binary trace file format (reader/writer).
 *
 * Traces can be captured once and replayed into many model sweeps (the
 * paper runs eight models over the same benchmark traces). Layout:
 *
 *   header:  magic "DEETRAC1" (8 bytes), u32 numStatic, u64 numRecords
 *   records: packed little-endian, 24 bytes each:
 *            u32 sid, u32 block, u8 op, u8 rd, u8 rs1, u8 rs2,
 *            u8 flags (bit0 isBranch, bit1 taken, bit2 backward),
 *            3 pad bytes, u64 memAddr
 *
 * The reader rejects a header whose record count the file cannot hold,
 * and records whose opcode, registers or static id are out of range.
 */

#ifndef DEE_TRACE_TRACE_IO_HH
#define DEE_TRACE_TRACE_IO_HH

#include <string>

#include "trace/trace.hh"

namespace dee
{

/**
 * Writes @p trace to the file at @p path.
 * @return false with *err describing the first I/O failure.
 */
bool writeTrace(const Trace &trace, const std::string &path,
                std::string *err);

/**
 * Reads the trace file at @p path into *out.
 * @return false with *err naming the first I/O or format problem (and
 * *out untouched); the reader never exits or aborts.
 */
bool readTrace(const std::string &path, Trace *out, std::string *err);

} // namespace dee

#endif // DEE_TRACE_TRACE_IO_HH
