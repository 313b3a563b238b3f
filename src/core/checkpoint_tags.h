// Section names and the variant tag of SARN weights files and training
// checkpoints (both section sets of the one arena, snapshot/arena.h).
//
// Every such file carries a "sarn/variant" section naming the encoder /
// augmentation / negative-sampler combo that produced it. The section is
// required, and restores check the tag BEFORE parsing any tensor section, so
// loading a file into a differently-composed model fails with a typed error
// naming both combos instead of a downstream shape mismatch.

#ifndef SARN_CORE_CHECKPOINT_TAGS_H_
#define SARN_CORE_CHECKPOINT_TAGS_H_

#include <string>

#include "common/binary_io.h"

namespace sarn::core {

// Section names. A weights file holds kSectionVariant and kSectionOnline; a
// training checkpoint holds all eight.
inline constexpr char kSectionOnline[] = "sarn/online";
inline constexpr char kSectionTarget[] = "sarn/target";
inline constexpr char kSectionOptimizer[] = "sarn/optimizer";
inline constexpr char kSectionSchedule[] = "sarn/schedule";
inline constexpr char kSectionRng[] = "sarn/rng";
inline constexpr char kSectionQueues[] = "sarn/queues";
inline constexpr char kSectionTrainer[] = "sarn/trainer";
inline constexpr char kSectionVariant[] = "sarn/variant";

/// The resolved variant names of one model composition.
struct VariantTag {
  std::string encoder;
  std::string augmentation;
  std::string negatives;

  friend bool operator==(const VariantTag&, const VariantTag&) = default;
};

inline void WriteVariantTag(ByteWriter& out, const VariantTag& tag) {
  out.PutString(tag.encoder);
  out.PutString(tag.augmentation);
  out.PutString(tag.negatives);
}

inline bool ReadVariantTag(ByteReader& in, VariantTag* tag) {
  return in.GetString(&tag->encoder) && in.GetString(&tag->augmentation) &&
         in.GetString(&tag->negatives);
}

/// "encoder=gat augmentation=third-law negatives=spatial" — for error
/// messages naming a combo.
inline std::string VariantTagString(const VariantTag& tag) {
  return "encoder=" + tag.encoder + " augmentation=" + tag.augmentation +
         " negatives=" + tag.negatives;
}

}  // namespace sarn::core

#endif  // SARN_CORE_CHECKPOINT_TAGS_H_
