#include "iec104/asdu.hpp"

#include <gtest/gtest.h>

namespace uncharted::iec104 {
namespace {

Asdu sample_float_asdu(int objects = 1) {
  Asdu asdu;
  asdu.type = TypeId::M_ME_NC_1;
  asdu.cot.cause = Cause::kSpontaneous;
  asdu.common_address = 37;
  for (int i = 0; i < objects; ++i) {
    InformationObject obj;
    obj.ioa = 4700 + static_cast<std::uint32_t>(i);
    obj.value = ShortFloat{130.5f + static_cast<float>(i), Quality{}};
    asdu.objects.push_back(obj);
  }
  return asdu;
}

TEST(Asdu, RoundTripStandardProfile) {
  Asdu asdu = sample_float_asdu(3);
  ByteWriter w;
  ASSERT_TRUE(asdu.encode(w).ok());
  // type + vsq + cot2 + ca2 + 3*(ioa3 + float4 + qds1) = 6 + 24.
  EXPECT_EQ(w.size(), 30u);

  ByteReader r(w.view());
  auto back = Asdu::decode(r);
  ASSERT_TRUE(back.ok()) << back.error().str();
  EXPECT_EQ(back->type, TypeId::M_ME_NC_1);
  EXPECT_EQ(back->cot.cause, Cause::kSpontaneous);
  EXPECT_EQ(back->common_address, 37);
  ASSERT_EQ(back->objects.size(), 3u);
  EXPECT_EQ(back->objects[1].ioa, 4701u);
  EXPECT_EQ(std::get<ShortFloat>(back->objects[1].value).value, 131.5f);
}

TEST(Asdu, RoundTripLegacyCotProfile) {
  Asdu asdu = sample_float_asdu();
  ByteWriter w;
  ASSERT_TRUE(asdu.encode(w, CodecProfile::legacy_cot()).ok());
  // One COT octet instead of two.
  EXPECT_EQ(w.size(), 13u);
  ByteReader r(w.view());
  auto back = Asdu::decode(r, CodecProfile::legacy_cot());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cot.cause, Cause::kSpontaneous);
  EXPECT_EQ(back->objects[0].ioa, 4700u);
}

TEST(Asdu, RoundTripLegacyIoaProfile) {
  struct Case {
    CodecProfile profile;
    std::uint32_t ioa;
    std::size_t size;
    std::uint32_t decoded_ioa;
  };
  const Case cases[] = {
      // 2-octet IOA saves one byte.
      {CodecProfile::legacy_ioa(), 4700, 13, 4700},
      // A 2-octet IOA cannot address above 65535: the wire field truncates.
      {CodecProfile::legacy_ioa(), 70000, 13, 70000u & 0xffff},
      // Full IEC 101 serial widths (1-octet COT and CA): 4 + 2 + 5 octets.
      {CodecProfile{1, 2, 1}, 4700, 11, 4700},
  };
  for (const auto& c : cases) {
    Asdu asdu = sample_float_asdu();
    asdu.objects[0].ioa = c.ioa;
    ByteWriter w;
    ASSERT_TRUE(asdu.encode(w, c.profile).ok()) << c.profile.str();
    EXPECT_EQ(w.size(), c.size) << c.profile.str();
    ByteReader r(w.view());
    auto back = Asdu::decode(r, c.profile);
    ASSERT_TRUE(back.ok()) << c.profile.str();
    EXPECT_EQ(back->common_address, 37) << c.profile.str();
    EXPECT_EQ(back->objects[0].ioa, c.decoded_ioa) << c.profile.str();
  }
}

TEST(Asdu, ProfileMismatchDetectedByExactness) {
  // Standard encoding decoded with the 1-octet-COT profile leaves the byte
  // count off by one -> trailing/truncation error, never silent success.
  Asdu asdu = sample_float_asdu();
  ByteWriter w;
  ASSERT_TRUE(asdu.encode(w).ok());
  ByteReader r(w.view());
  auto back = Asdu::decode(r, CodecProfile::legacy_cot());
  EXPECT_TRUE(!back.ok() || !r.empty());
}

TEST(Asdu, SequenceEncoding) {
  Asdu asdu;
  asdu.type = TypeId::M_ME_NC_1;
  asdu.sequence = true;
  asdu.cot.cause = Cause::kInterrogatedByStation;
  asdu.common_address = 5;
  for (int i = 0; i < 4; ++i) {
    InformationObject obj;
    obj.ioa = 2000 + static_cast<std::uint32_t>(i);  // consecutive by contract
    obj.value = ShortFloat{static_cast<float>(i), Quality{}};
    asdu.objects.push_back(obj);
  }
  ByteWriter w;
  ASSERT_TRUE(asdu.encode(w).ok());
  // SQ=1: single IOA + 4 elements: 6 + 3 + 4*5 = 29.
  EXPECT_EQ(w.size(), 29u);
  ByteReader r(w.view());
  auto back = Asdu::decode(r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->sequence);
  ASSERT_EQ(back->objects.size(), 4u);
  EXPECT_EQ(back->objects[0].ioa, 2000u);
  EXPECT_EQ(back->objects[3].ioa, 2003u);
}

TEST(Asdu, TimeTaggedRoundTrip) {
  Asdu asdu;
  asdu.type = TypeId::M_ME_TF_1;
  asdu.cot.cause = Cause::kSpontaneous;
  asdu.common_address = 9;
  InformationObject obj;
  obj.ioa = 1234;
  obj.value = ShortFloat{0.25f, Quality{}};
  obj.time = Cp56Time2a::from_timestamp(1560556800ULL * 1'000'000);
  asdu.objects.push_back(obj);
  ByteWriter w;
  ASSERT_TRUE(asdu.encode(w).ok());
  ByteReader r(w.view());
  auto back = Asdu::decode(r);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back->objects[0].time.has_value());
  EXPECT_EQ(back->objects[0].time->to_timestamp(), 1560556800ULL * 1'000'000);
}

TEST(Asdu, MissingTimeTagIsEncodeError) {
  Asdu asdu;
  asdu.type = TypeId::M_ME_TF_1;
  asdu.common_address = 1;
  InformationObject obj;
  obj.ioa = 1;
  obj.value = ShortFloat{1.0f, Quality{}};
  asdu.objects.push_back(obj);  // no time tag
  ByteWriter w;
  auto st = asdu.encode(w);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "missing-time-tag");
}

TEST(Asdu, RejectsUnknownTypeAndZeroObjects) {
  ByteWriter w;
  w.u8(2);  // M_SP_TA_1: IEC 101 only, not in the 104 subset
  w.u8(1);
  w.u8(3);
  w.u8(0);
  w.u16le(1);
  ByteReader r(w.view());
  auto res = Asdu::decode(r);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "unknown-typeid");

  ByteWriter w2;
  w2.u8(13);
  w2.u8(0);  // zero objects
  w2.u8(3);
  w2.u8(0);
  w2.u16le(1);
  ByteReader r2(w2.view());
  auto res2 = Asdu::decode(r2);
  ASSERT_FALSE(res2.ok());
  EXPECT_EQ(res2.error().code, "zero-objects");

  Asdu empty;
  ByteWriter w3;
  EXPECT_FALSE(empty.encode(w3).ok());
}

TEST(Asdu, TrailingBytesRejected) {
  Asdu asdu = sample_float_asdu();
  ByteWriter w;
  ASSERT_TRUE(asdu.encode(w).ok());
  w.u8(0xff);  // junk
  ByteReader r(w.view());
  auto res = Asdu::decode(r);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "trailing-bytes");
}

TEST(Asdu, CotFlagsRoundTrip) {
  Asdu asdu = sample_float_asdu();
  asdu.cot.negative = true;
  asdu.cot.test = true;
  asdu.cot.originator = 7;
  ByteWriter w;
  ASSERT_TRUE(asdu.encode(w).ok());
  ByteReader r(w.view());
  auto back = Asdu::decode(r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->cot.negative);
  EXPECT_TRUE(back->cot.test);
  EXPECT_EQ(back->cot.originator, 7);
}

TEST(CodecProfile, Labels) {
  EXPECT_EQ(CodecProfile::standard().str(), "standard");
  EXPECT_EQ(CodecProfile::legacy_cot().str(), "cot=1,ioa=3,ca=2");
  EXPECT_TRUE(CodecProfile::standard().is_standard());
  EXPECT_FALSE(CodecProfile::legacy_both().is_standard());
}

}  // namespace
}  // namespace uncharted::iec104
