// IXP route-server BGP community schemes (paper Table 1).
//
// Each IXP documents community values that members attach to control how
// the route server re-advertises their routes:
//
//   ALL      announce to every RS member (the default, often implicit)
//   EXCLUDE  block the announcement toward one member
//   NONE     block the announcement toward every member
//   INCLUDE  allow the announcement toward one member
//
// The peer-targeted patterns (EXCLUDE/INCLUDE) carry the target's ASN in
// the 16-bit low half; members with 32-bit ASNs are aliased into the
// 16-bit private range by the IXP operator (paper section 3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "bgp/asn.hpp"
#include "bgp/community.hpp"

namespace mlp::routeserver {

using bgp::Asn;
using bgp::Community;

/// How a single community value relates to a scheme.
enum class CommunityTag : std::uint8_t {
  All,
  None,
  Exclude,
  Include,
  Unrelated,
};

std::string to_string(CommunityTag tag);

/// Table-1 layout families observed at real IXPs.
enum class SchemeStyle : std::uint8_t {
  /// DE-CIX / MSK-IX style: ALL = rs:rs, EXCLUDE = 0:peer, NONE = 0:rs,
  /// INCLUDE = rs:peer. Requires a 16-bit route-server ASN.
  RsAsnBased,
  /// ECIX style: ALL = rs:rs, EXCLUDE = 64960:peer, NONE = 65000:0,
  /// INCLUDE = 65000:peer.
  PrivateRangeBased,
};

/// One IXP's community dialect plus its 32-bit member alias table.
class IxpCommunityScheme {
 public:
  IxpCommunityScheme() = default;

  /// Build the standard scheme of `style` for a route server ASN.
  /// Throws InvalidArgument for RsAsnBased with a 32-bit ASN.
  static IxpCommunityScheme make(std::string ixp_name, Asn rs_asn,
                                 SchemeStyle style);

  const std::string& ixp_name() const { return ixp_name_; }
  Asn rs_asn() const { return rs_asn_; }
  SchemeStyle style() const { return style_; }

  Community all_community() const { return all_; }
  Community none_community() const { return none_; }
  std::uint16_t exclude_high() const { return exclude_high_; }
  std::uint16_t include_high() const { return include_high_; }

  /// Register a private-range alias for a 32-bit member ASN.
  /// Throws InvalidArgument if the alias is outside the private range, the
  /// ASN fits in 16 bits anyway, or either side is already mapped.
  void add_alias(Asn member, std::uint16_t alias);

  /// The 16-bit encoding of a member for peer-targeted communities
  /// (the ASN itself, or its alias). Nullopt for an unaliased 32-bit ASN.
  std::optional<std::uint16_t> encode_peer(Asn member) const;

  /// Reverse of encode_peer: the member ASN a 16-bit value refers to.
  std::optional<Asn> decode_peer(std::uint16_t value) const;

  Community exclude_community(Asn member) const;
  Community include_community(Asn member) const;

  /// Classify one community under this scheme. For Exclude/Include,
  /// `peer_out` (if non-null) receives the decoded member ASN; a
  /// peer-targeted pattern whose low half decodes to no known member is
  /// classified Unrelated.
  CommunityTag classify(Community community, Asn* peer_out = nullptr) const;

  /// True if the community textually encodes the route-server ASN in
  /// either half: section 4.2's direct attribution rule, which the
  /// passive pipeline applies to every IXP at once through
  /// core::AttributionIndex.
  bool encodes_rs_asn(Community community) const;

  /// Validation hook: whether `asn` can appear as a peer target.
  bool can_target(Asn member) const { return encode_peer(member).has_value(); }

  /// The registered 32-bit member aliases (member -> private-range value),
  /// e.g. for serialising a scheme back to a config file.
  const std::map<Asn, std::uint16_t>& aliases() const { return alias_of_; }

 private:
  std::string ixp_name_;
  Asn rs_asn_ = 0;
  SchemeStyle style_ = SchemeStyle::RsAsnBased;
  Community all_;
  Community none_;
  std::uint16_t exclude_high_ = 0;
  std::uint16_t include_high_ = 0;
  std::map<Asn, std::uint16_t> alias_of_;   // member -> private alias
  std::map<std::uint16_t, Asn> alias_for_;  // private alias -> member
};

}  // namespace mlp::routeserver
