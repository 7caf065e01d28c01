//===- support/Histogram.cpp - Fixed-width bucket histograms -------------===//

#include "support/Histogram.h"
#include "support/Contracts.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace ccsim;

Histogram::Histogram(double BucketWidth, size_t NumBuckets)
    : BucketWidth(BucketWidth) {
  CCSIM_ASSERT(BucketWidth > 0.0, "bucket width must be positive");
  CCSIM_ASSERT(NumBuckets > 0, "need at least one bucket");
  Counts.assign(NumBuckets + 1, 0);
}

void Histogram::add(double Sample) { add(Sample, 1); }

void Histogram::add(double Sample, uint64_t Count) {
  size_t Index;
  if (Sample < 0.0) {
    Index = 0;
  } else {
    const double Raw = Sample / BucketWidth;
    if (Raw >= static_cast<double>(numBuckets()))
      Index = Counts.size() - 1; // Overflow bucket.
    else
      Index = static_cast<size_t>(Raw);
  }
  Counts[Index] += Count;
  Total += Count;
}

double Histogram::bucketFraction(size_t I) const {
  CCSIM_ASSERT(I < Counts.size(), "bucket index out of range");
  if (Total == 0)
    return 0.0;
  return static_cast<double>(Counts[I]) / static_cast<double>(Total);
}

std::string Histogram::render(size_t MaxBarWidth) const {
  uint64_t MaxCount = 0;
  for (uint64_t C : Counts)
    MaxCount = std::max(MaxCount, C);
  if (MaxCount == 0)
    MaxCount = 1;

  std::string Out;
  for (size_t I = 0; I < Counts.size(); ++I) {
    const bool Last = I + 1 == Counts.size();
    std::string Label = Last ? ">= " : "[";
    Label += formatDouble(bucketLow(I), 0);
    if (!Last)
      Label.append(", ").append(formatDouble(bucketHigh(I), 0)).append(")");
    Out += padRight(Label, 16);
    const size_t Bar = static_cast<size_t>(
        std::llround(static_cast<double>(Counts[I]) * MaxBarWidth /
                     static_cast<double>(MaxCount)));
    Out += std::string(Bar, '#');
    Out += "  ";
    Out += std::to_string(Counts[I]);
    Out += " (";
    Out += formatDouble(bucketFraction(I) * 100.0, 1);
    Out += "%)\n";
  }
  return Out;
}
