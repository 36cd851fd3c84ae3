import pytest

from markermt.network import load_network
from markermt.oracle import MAX_DEPTH, recognize_oracle

from helpers import deep_chain, mini_net


# n1 and n2 each own a sequence whose one element is the other: a span read
# as one is read as the other, and so on round the cycle
UNARY_CYCLE = (
    "concept a\nlex ka ko wa isa a\nlex ea en va isa a\nconcept n1\nconcept n2\n"
    "cs c1 ko of n1 pair m1 : n2(CX)\ncs m1 en of n1 pair c1 : n2(CX)\n"
    "cs c2 ko of n2 pair m2 : n1(CX)\ncs m2 en of n2 pair c2 : n1(CX)\n"
)


def test_a_span_is_not_derived_again_through_the_same_sequence():
    """The cycle c1 -> c2 -> c1 over one span stops at its second visit of
    c1: without that guard the search would nest until ``MAX_DEPTH``."""
    net = load_network(UNARY_CYCLE)
    assert recognize_oracle(net, net.sequences["c1"], ["wa"]) is False


def test_omissible_free_may_be_dropped(net):
    kcs1 = net.sequences["kcs1"]
    # subject omitted, location realized by a bare lexical item
    assert recognize_oracle(
        net, kcs1, ["kong-wen", "kanun", "kil-ul", "allyecwu-si-keyssupnikka"]
    )


def test_nested_sequence_span(net):
    kcs1 = net.sequences["kcs1"]
    assert recognize_oracle(
        net,
        kcs1,
        ["ce-eykey", "ken-ney-ti", "kong-wen", "kanun", "kil-ul", "allyecwu-si-keyssupnikka"],
    )


def test_fixed_order_violation_rejected():
    net = mini_net("a(CX) b(CX)")
    assert recognize_oracle(net, net.sequences["test"], ["wa", "wb"])
    assert not recognize_oracle(net, net.sequences["test"], ["wb", "wa"])


def test_free_element_in_both_positions(net):
    kcs2 = net.sequences["kcs2"]
    assert recognize_oracle(
        net, kcs2, ["eti", "kong-wen", "issnunci", "allyecwu-si-keyssupnikka"]
    )
    assert recognize_oracle(
        net, kcs2, ["kong-wen", "eti", "issnunci", "allyecwu-si-keyssupnikka"]
    )
    # the required free element cannot be dropped
    assert not recognize_oracle(net, kcs2, ["kong-wen", "issnunci", "allyecwu-si-keyssupnikka"])


def test_literal_matching():
    net = mini_net('a(CX) "kanun"(CX)')
    assert recognize_oracle(net, net.sequences["test"], ["wa", "kanun"])
    assert not recognize_oracle(net, net.sequences["test"], ["wa", "wb"])


def test_extra_token_rejected():
    net = mini_net("a(CX)")
    assert not recognize_oracle(net, net.sequences["test"], ["wa", "wa"])
    assert not recognize_oracle(net, net.sequences["test"], [])


def test_size_limit():
    net = mini_net(" ".join(["a(CX)"] * 9))
    with pytest.raises(ValueError, match="limited to 8"):
        recognize_oracle(net, net.sequences["test"], ["wa"])


def test_deep_nesting_is_refused_past_the_stated_depth():
    # the 1,200-deep chain used to raise RecursionError
    net = load_network(deep_chain(1200))
    with pytest.raises(ValueError, match=f"limited to {MAX_DEPTH} nested sequences"):
        recognize_oracle(net, net.sequences["k1200"], ["w0"])
    at_limit = load_network(deep_chain(MAX_DEPTH))
    assert recognize_oracle(at_limit, at_limit.sequences[f"k{MAX_DEPTH}"], ["w0"])
    assert not recognize_oracle(at_limit, at_limit.sequences[f"k{MAX_DEPTH}"], ["w0", "w0"])
    past = load_network(deep_chain(MAX_DEPTH + 1))
    with pytest.raises(ValueError):
        recognize_oracle(past, past.sequences[f"k{MAX_DEPTH + 1}"], ["w0"])
